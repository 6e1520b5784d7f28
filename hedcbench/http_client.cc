#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <strings.h>

namespace hedcbench {

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::Connect(std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{timeout_ms_ / 1000, (timeout_ms_ % 1000) * 1000};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

namespace {

// Case-insensitive header lookup inside the header block.
std::string HeaderValue(const std::string& head, const char* name) {
  size_t name_len = std::strlen(name);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t start = pos + 2;
    size_t end = head.find("\r\n", start);
    if (end == std::string::npos) end = head.size();
    if (end - start > name_len && head[start + name_len] == ':' &&
        ::strncasecmp(head.data() + start, name, name_len) == 0) {
      size_t v = start + name_len + 1;
      while (v < end && head[v] == ' ') ++v;
      return head.substr(v, end - v);
    }
    pos = end;
  }
  return "";
}

}  // namespace

HttpResult HttpClient::Exchange(const std::string& wire) {
  HttpResult result;
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      result.error = std::string("send: ") + std::strerror(errno);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  size_t header_end = std::string::npos;
  size_t total = std::string::npos;
  char chunk[65536];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::string head = buffer_.substr(0, header_end);
        if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
          result.error = "malformed status line";
          return result;
        }
        result.status = std::atoi(head.c_str() + 9);
        result.set_cookie = HeaderValue(head, "Set-Cookie");
        std::string length = HeaderValue(head, "Content-Length");
        if (length.empty()) {
          result.error = "response without Content-Length";
          return result;
        }
        total = header_end + 4 + std::strtoull(length.c_str(), nullptr, 10);
      }
    }
    if (total != std::string::npos && buffer_.size() >= total) break;
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      result.error = n == 0 ? "connection closed"
                            : std::string("recv: ") + std::strerror(errno);
      return result;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  result.body = buffer_.substr(header_end + 4, total - header_end - 4);
  buffer_.erase(0, total);
  result.ok = true;
  return result;
}

HttpResult HttpClient::Get(const std::string& target,
                           const std::string& cookie) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (!cookie.empty()) wire += "Cookie: " + cookie + "\r\n";
  wire += "\r\n";
  bool fresh = false;
  if (fd_ < 0) {
    std::string error;
    if (!Connect(&error)) {
      HttpResult failed;
      failed.error = error;
      return failed;
    }
    fresh = true;
  }
  HttpResult result = Exchange(wire);
  if (!result.ok && !fresh && result.status == 0 &&
      result.error == "connection closed") {
    // The server closed an idle keep-alive connection: retry once.
    Close();
    std::string error;
    if (!Connect(&error)) {
      result.error = error;
      return result;
    }
    result = Exchange(wire);
  }
  if (!result.ok) Close();
  return result;
}

}  // namespace hedcbench
