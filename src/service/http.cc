#include "service/http.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace svw::service {

HttpParser::Status
HttpParser::fail(const std::string &why)
{
    error_ = why;
    status_ = Status::Error;
    return status_;
}

HttpParser::Status
HttpParser::feed(const char *data, std::size_t n)
{
    if (status_ != Status::NeedMore)
        return status_;
    buf_.append(data, n);

    if (!headDone_) {
        const std::size_t end = buf_.find("\r\n\r\n");
        if (end == std::string::npos) {
            if (buf_.size() > maxHead_)
                return fail("request head too large");
            return status_;
        }
        if (end + 4 > maxHead_)
            return fail("request head too large");
        if (parseHead() == Status::Error)
            return status_;
        headDone_ = true;
        buf_.erase(0, end + 4);
    }

    if (buf_.size() > bodyNeeded_)
        return fail("unexpected bytes after request body");
    if (buf_.size() < bodyNeeded_)
        return status_;
    req_.body = std::move(buf_);
    buf_.clear();
    status_ = Status::Complete;
    return status_;
}

HttpParser::Status
HttpParser::parseHead()
{
    // Request line: METHOD SP TARGET SP HTTP/1.x
    std::size_t lineEnd = buf_.find("\r\n");
    std::string line = buf_.substr(0, lineEnd);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos)
        return fail("malformed request line");
    req_.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = line.substr(sp2 + 1);
    if (req_.method.empty() || target.empty() || target[0] != '/')
        return fail("malformed request line");
    if (version.rfind("HTTP/1.", 0) != 0)
        return fail("unsupported protocol version");
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
        req_.query = target.substr(q + 1);
        target.resize(q);
    }
    req_.target = target;

    // Header lines until the blank line (already found by the caller).
    std::size_t pos = lineEnd + 2;
    while (true) {
        lineEnd = buf_.find("\r\n", pos);
        if (lineEnd == pos)
            break;  // blank line: end of head
        line = buf_.substr(pos, lineEnd - pos);
        pos = lineEnd + 2;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0)
            return fail("malformed header line");
        std::string name = line.substr(0, colon);
        std::string value = line.substr(colon + 1);
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const std::size_t first = value.find_first_not_of(" \t");
        const std::size_t last = value.find_last_not_of(" \t");
        value = first == std::string::npos
                    ? std::string()
                    : value.substr(first, last - first + 1);
        req_.headers[name] = value;
    }

    if (req_.headers.count("transfer-encoding"))
        return fail("chunked request bodies unsupported");
    bodyNeeded_ = 0;
    auto it = req_.headers.find("content-length");
    if (it != req_.headers.end()) {
        const std::string &v = it->second;
        if (v.empty() ||
            v.find_first_not_of("0123456789") != std::string::npos)
            return fail("malformed content-length");
        // 20+ digits cannot be honest; reject before stoull range UB.
        if (v.size() > 19)
            return fail("request body too large");
        bodyNeeded_ = std::stoull(v);
        if (bodyNeeded_ > maxBody_)
            return fail("request body too large");
    }
    return Status::NeedMore;
}

std::string
formUrlDecode(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '+') {
            out.push_back(' ');
        } else if (c == '%' && i + 2 < text.size() &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
            const std::string hex = text.substr(i + 1, 2);
            out.push_back(
                static_cast<char>(std::stoi(hex, nullptr, 16)));
            i += 2;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::map<std::string, std::string>
parseFormBody(const std::string &body)
{
    std::map<std::string, std::string> params;
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t amp = body.find('&', pos);
        if (amp == std::string::npos)
            amp = body.size();
        const std::string pair = body.substr(pos, amp - pos);
        pos = amp + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            params[formUrlDecode(pair)] = "";
        else
            params[formUrlDecode(pair.substr(0, eq))] =
                formUrlDecode(pair.substr(eq + 1));
    }
    return params;
}

std::string
simpleResponse(int status, const std::string &reason,
               const std::string &contentType, const std::string &body)
{
    char head[256];
    std::snprintf(head, sizeof(head),
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n"
                  "\r\n",
                  status, reason.c_str(), contentType.c_str(),
                  body.size());
    return std::string(head) + body;
}

std::string
chunkedResponseHead(int status, const std::string &reason,
                    const std::string &contentType)
{
    char head[256];
    std::snprintf(head, sizeof(head),
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Transfer-Encoding: chunked\r\n"
                  "Connection: close\r\n"
                  "\r\n",
                  status, reason.c_str(), contentType.c_str());
    return head;
}

void
appendChunk(std::string &out, std::initializer_list<std::string_view> parts)
{
    std::size_t size = 0;
    for (std::string_view p : parts)
        size += p.size();
    char hex[2 * sizeof(std::size_t)];
    out.append(hex, std::to_chars(hex, hex + sizeof(hex), size, 16).ptr);
    out += "\r\n";
    for (std::string_view p : parts)
        out += p;
    out += "\r\n";
}

std::string
encodeChunk(const std::string &data)
{
    std::string out;
    out.reserve(data.size() + 2 * sizeof(std::size_t) + 4);
    appendChunk(out, {data});
    return out;
}

std::string
finalChunk()
{
    return "0\r\n\r\n";
}

} // namespace svw::service
