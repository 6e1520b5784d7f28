// Socket-level HTTP/1.1 front end for the presentation tier (§6.1).
//
// web/http.h deliberately models requests as in-process structures; this
// module puts them on real loopback sockets so browsers' dominant access
// pattern — many keep-alive connections, mostly idle — is exercised for
// real. HttpTcpServer wraps any handler (typically WebServer::Dispatch)
// and, like dm::TcpRmiServer, serves it from its own epoll reactor
// (net/reactor.h): a per-connection incremental HTTP parser on the loop
// thread, handlers on the reactor's worker pool. The wire encoding is
// pinned byte-for-byte by golden transcripts in
// tests/net_conformance_test.cc.
#ifndef HEDC_WEB_HTTP_TCP_H_
#define HEDC_WEB_HTTP_TCP_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "net/reactor.h"
#include "web/http.h"

namespace hedc::web {

// An HttpRequest parsed off the wire, plus connection disposition.
struct ParsedHttpRequest {
  HttpRequest request;
  bool keep_alive = true;
};

enum class HttpParseResult { kNeedMore, kOk, kBad };

// Incremental HTTP/1.1 request parser over buffered bytes. On kOk fills
// `out` and sets `consumed` to the total request length (headers + body).
// kNeedMore leaves both untouched; kBad means the connection should get a
// 400 and be dropped (malformed request line/headers, oversized header
// block or declared body).
HttpParseResult ParseHttpRequest(const uint8_t* data, size_t n,
                                 size_t max_header, size_t max_body,
                                 ParsedHttpRequest* out, size_t* consumed);

// The wire encoding of a response: status line, Content-Type,
// Content-Length, Connection, Set-Cookie headers, then body + binary_body.
std::vector<uint8_t> SerializeHttpResponse(const HttpResponse& response,
                                           bool keep_alive);

// Serves HTTP over loopback TCP. Handler-based rather than bound to
// WebServer so tests can serve canned responses; wire it to a WebServer
// with [&server](const HttpRequest& r) { return server.Dispatch(r); }.
class HttpTcpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    net::Reactor::Options reactor;
    size_t max_header_bytes = 64u << 10;
    size_t max_body_bytes = 8u << 20;

    // The net.* reactor knobs (see net::Reactor::Options::FromConfig).
    static Options FromConfig(const Config& config);
  };

  explicit HttpTcpServer(Handler handler, MetricsRegistry* metrics = nullptr)
      : HttpTcpServer(std::move(handler), metrics, Options()) {}
  HttpTcpServer(Handler handler, MetricsRegistry* metrics, Options options);
  ~HttpTcpServer();
  HttpTcpServer(const HttpTcpServer&) = delete;
  HttpTcpServer& operator=(const HttpTcpServer&) = delete;

  // The reactor boots on the first Start and survives Stop/Start cycles;
  // Stop drains only this server's listener.
  Status Start(int port = 0);
  int port() const;
  bool running() const;
  void Stop();

 private:
  Handler handler_;
  MetricsRegistry* metrics_;
  Options options_;
  net::Reactor reactor_;

  mutable std::mutex mu_;
  net::Reactor::ListenerInfo listener_;  // id < 0 when not serving
};

}  // namespace hedc::web

#endif  // HEDC_WEB_HTTP_TCP_H_
