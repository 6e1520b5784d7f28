// TCP transport for remote DM calls (§2.3 "RMI and HTTP", §5.4).
//
// TcpRmiServer accepts loopback connections and serves length-delimited,
// CRC-checked call frames (web/tcp.h) against an RmiServer; TcpChannel is
// the matching client-side ByteChannel. One connection carries a sequence
// of request/response frames; a TcpChannel serializes its calls and
// reconnects lazily after any transport error, so a ResilientChannel
// layered on top can simply retry.
//
// TcpRmiServer serves from its own epoll reactor (net/reactor.h): a
// per-connection frame state machine on the loop thread, frames executed
// on the reactor's worker pool. Its client-visible semantics are pinned by
// tests/net_conformance_test.cc: framing errors drop the connection
// (peers observe kUnavailable), valid frames always get a response, and
// Stop() kills in-flight calls.
#ifndef HEDC_DM_TCP_REMOTE_H_
#define HEDC_DM_TCP_REMOTE_H_

#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "dm/remote.h"
#include "net/reactor.h"
#include "web/tcp.h"

namespace hedc::dm {

// Serves RMI frames over TCP. Start() after Stop() reboots the server (on
// a fresh ephemeral port when port 0 is used), which is how a cluster
// node restarts. The reactor boots on the first Start and survives
// Stop/Start cycles; Stop drains only this server's listener.
class TcpRmiServer {
 public:
  struct Options {
    // Worker count, timeouts and buffering of the server's reactor. A
    // handler that blocks (e.g. cluster::NodeGate) holds a worker for
    // the whole call, so workers bound the frames executing at once.
    net::Reactor::Options reactor;
    // Frames whose header claims more than this are rejected before any
    // payload allocation and the connection dropped.
    size_t max_frame = 64u << 20;

    // Reads net.max_frame_bytes plus the net.* reactor knobs (see
    // net::Reactor::Options::FromConfig).
    static Options FromConfig(const Config& config);
  };

  explicit TcpRmiServer(RmiHandler* rmi, MetricsRegistry* metrics = nullptr)
      : TcpRmiServer(rmi, metrics, Options()) {}
  TcpRmiServer(RmiHandler* rmi, MetricsRegistry* metrics, Options options);
  ~TcpRmiServer();
  TcpRmiServer(const TcpRmiServer&) = delete;
  TcpRmiServer& operator=(const TcpRmiServer&) = delete;

  // Port 0 picks an ephemeral port; see port().
  Status Start(int port = 0);
  // Locked: a restart (Stop + Start) rebinds the listener, and clients
  // may read the port concurrently with the rebind.
  int port() const;
  bool running() const;
  // Idempotent; kills in-flight calls mid-frame (clients observe a reset).
  void Stop();

 private:
  RmiHandler* rmi_;
  MetricsRegistry* metrics_;
  Options options_;
  net::Reactor reactor_;

  mutable std::mutex mu_;
  net::Reactor::ListenerInfo listener_;  // id < 0 when not serving
};

// Client-side channel: connects on first use, one in-flight call at a
// time, reconnects after errors. Transport failures map to kUnavailable
// (connect/reset/EOF), kTimeout (receive deadline) or kCorruption (bad
// frame checksum), which is exactly the retryable set of
// ResilientChannel.
class TcpChannel : public ByteChannel {
 public:
  TcpChannel(std::string host, int port,
             Micros recv_timeout = 2 * kMicrosPerSecond)
      : host_(std::move(host)), port_(port), recv_timeout_(recv_timeout) {}

  Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request) override;

  void set_recv_timeout(Micros timeout) {
    std::lock_guard<std::mutex> lock(mu_);
    recv_timeout_ = timeout;
  }

 private:
  // Every transport error funnels through here before the next call may
  // reconnect, so an error can never strand the old fd (regression:
  // tests/net_adversarial_test.cc reconnect hammer).
  void DisconnectLocked() { socket_.Close(); }

  std::string host_;
  int port_;

  std::mutex mu_;
  Micros recv_timeout_;
  net::TcpSocket socket_;  // invalid when disconnected
};

}  // namespace hedc::dm

#endif  // HEDC_DM_TCP_REMOTE_H_
