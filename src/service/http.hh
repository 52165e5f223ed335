/**
 * @file
 * Minimal HTTP/1.1 plumbing for the sweepd service daemon: an
 * incremental request parser sized for one-request-per-connection use,
 * application/x-www-form-urlencoded body decoding, and response
 * formatting helpers (simple Content-Length responses and chunked
 * transfer encoding for the streamed sweep results).
 *
 * Deliberately not a general HTTP stack: no keep-alive, no pipelining,
 * no multipart, no percent-encoded request targets beyond the query
 * split. sweepd's protocol surface is three endpoints driven by curl
 * and the test harness; everything else is a 400/404.
 */

#ifndef SVW_SERVICE_HTTP_HH
#define SVW_SERVICE_HTTP_HH

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace svw::service {

/** One parsed request. Header names are lower-cased. */
struct HttpRequest
{
    std::string method;  ///< e.g. "GET", "POST"
    std::string target;  ///< path only (query string split off)
    std::string query;   ///< raw query string, no leading '?'
    std::map<std::string, std::string> headers;
    std::string body;
};

/**
 * Incremental single-request parser. Feed it bytes as they arrive;
 * it reports NeedMore until the head and the declared body are
 * complete, Error (with a one-line reason) on malformed or oversized
 * input. Limits are enforced *while reading*, so an abusive client
 * cannot balloon the connection buffer before being rejected.
 */
class HttpParser
{
  public:
    enum class Status
    {
        NeedMore,
        Complete,
        Error,
    };

    HttpParser(std::size_t maxHeadBytes, std::size_t maxBodyBytes)
        : maxHead_(maxHeadBytes), maxBody_(maxBodyBytes)
    {}

    /** Consume @p n bytes; @return the parse status so far. */
    Status feed(const char *data, std::size_t n);

    /** Valid once feed returned Complete. */
    const HttpRequest &request() const { return req_; }

    /** One-line reason once feed returned Error. */
    const std::string &error() const { return error_; }

  private:
    Status fail(const std::string &why);
    Status parseHead();

    std::size_t maxHead_;
    std::size_t maxBody_;
    std::string buf_;
    HttpRequest req_;
    std::string error_;
    std::size_t bodyNeeded_ = 0;
    bool headDone_ = false;
    Status status_ = Status::NeedMore;
};

/** Decode one application/x-www-form-urlencoded value ('+' and %XX). */
std::string formUrlDecode(const std::string &text);

/** Parse a form-urlencoded body into key -> decoded value (last key
 * wins). Malformed escapes decode literally rather than erroring. */
std::map<std::string, std::string> parseFormBody(const std::string &body);

/** A complete non-streamed response with Content-Length and
 * Connection: close. @p status like 200, @p reason like "OK". */
std::string simpleResponse(int status, const std::string &reason,
                           const std::string &contentType,
                           const std::string &body);

/** The head of a chunked streaming response (headers only). */
std::string chunkedResponseHead(int status, const std::string &reason,
                                const std::string &contentType);

/**
 * Append one transfer-encoding chunk to @p out: the payload's size in
 * hex, CRLF, the payload — @p parts concatenated — and CRLF (an empty
 * payload frames the terminating chunk). sweepd frames its stream
 * straight into a connection's output buffer this way, with no
 * temporary per chunk.
 */
void appendChunk(std::string &out,
                 std::initializer_list<std::string_view> parts);

/** One transfer-encoding chunk framing @p data (appendChunk's
 * format; empty data frames the terminating chunk). */
std::string encodeChunk(const std::string &data);

/** The terminating zero-length chunk. */
std::string finalChunk();

} // namespace svw::service

#endif // SVW_SERVICE_HTTP_HH
