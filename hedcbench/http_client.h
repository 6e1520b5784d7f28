// Minimal blocking HTTP/1.1 keep-alive client over loopback: one socket,
// one request in flight, Content-Length framed responses (the only
// framing HttpTcpServer emits).
#ifndef HEDCBENCH_HTTP_CLIENT_H_
#define HEDCBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace hedcbench {

struct HttpResult {
  bool ok = false;  // a complete response arrived
  int status = 0;
  std::string body;
  std::string set_cookie;  // first Set-Cookie value, if any
  std::string error;       // socket error or timeout
};

class HttpClient {
 public:
  HttpClient(int port, int timeout_ms) : port_(port), timeout_ms_(timeout_ms) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // GET `target` with the given Cookie header (empty = none). Reconnects
  // once if the kept-alive connection turned out to be closed.
  HttpResult Get(const std::string& target, const std::string& cookie);

 private:
  bool Connect(std::string* error);
  void Close();
  HttpResult Exchange(const std::string& wire);

  int port_;
  int timeout_ms_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace hedcbench

#endif  // HEDCBENCH_HTTP_CLIENT_H_
