// Epoll front end for the query service (DESIGN.md §14).
//
// Architecture: one listen socket on loop 0, accepted connections
// assigned round-robin across N event loops. Each loop owns a private
// connection registry (id -> Conn); a connection's buffers and codec
// state are only ever touched from its loop thread. Request execution is
// asynchronous: the loop hands the decoded request to a Dispatch
// function (default RequestRouter::HandleAsync) and continues serving
// other connections; the completion closure Post()s the rendered
// response back to the owning loop, which looks the connection up by id
// — a connection that died meanwhile simply drops its responses.
//
// Codec auto-detection: the first byte of a connection decides. 0xB5
// (kWireMagic, never valid leading JSON) selects the binary framing from
// net/wire.h; anything else selects the line-JSON codec. Both codecs
// produce byte-identical response documents because the binary response
// payload *is* the line-JSON text.
//
// Input is bounded per connection by kMaxFramePayload. A longer (or
// otherwise corrupt) binary frame, or a pending line-JSON line past the
// cap, kills the connection: the line codec answers a typed kOutOfRange
// error first, and either way the connection closes once the responses
// it is owed are flushed. Other connections are unaffected.
//
// Responses complete in solve order, not arrival order — pipelined
// clients correlate by the echoed `id` field.
#ifndef LICM_NET_FRONT_END_H_
#define LICM_NET_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "service/server.h"

namespace licm::net {

class NetFrontEnd {
 public:
  /// Receives one decoded request; must call `done(response, shutdown)`
  /// exactly once (any thread). The default dispatch is
  /// router->HandleAsync; a wrapper set here sees every request and its
  /// completion (e.g. to time each request end to end).
  using Dispatch = std::function<void(
      const service::WireRequest&, std::function<void(std::string, bool)>)>;

  struct Options {
    /// Event loop count (>=1); loop 0 also runs the acceptor.
    int num_loops = 1;
  };

  explicit NetFrontEnd(service::RequestRouter* router)
      : NetFrontEnd(router, Options()) {}
  NetFrontEnd(service::RequestRouter* router, Options options);
  ~NetFrontEnd();
  NetFrontEnd(const NetFrontEnd&) = delete;
  NetFrontEnd& operator=(const NetFrontEnd&) = delete;

  void set_dispatch(Dispatch dispatch) { dispatch_ = std::move(dispatch); }

  /// Binds and listens (port 0 = ephemeral, see port()).
  Status Listen(const std::string& host, int port);
  int port() const { return port_; }

  /// Runs loop 0 on the calling thread and loops 1..N-1 on background
  /// threads; returns after Stop() or a shutdown request, with all
  /// loops joined and all connections closed.
  Status Serve();

  void Stop();

 private:
  enum class Codec { kUnknown, kBinary, kLineJson };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    size_t loop_index = 0;
    Codec codec = Codec::kUnknown;
    std::string in;
    size_t line_scanned = 0;    // line-JSON: prefix of `in` with no '\n'
    std::string out;
    bool want_write = false;    // EPOLLOUT armed
    bool peer_closed = false;   // read side saw EOF
    bool dead = false;          // codec error — close once answered
    bool shutdown_after = false;  // stop the server once out drains
    int64_t inflight = 0;       // dispatched, response not yet delivered
  };

  struct LoopState {
    EventLoop loop;
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    metrics::Gauge* open_connections = nullptr;
  };

  void AcceptReady();
  void AdoptConnection(size_t loop_index, int fd);
  void ConnReady(size_t loop_index, uint64_t conn_id, uint32_t events);
  void ReadReady(LoopState& state, Conn& conn);
  /// Decodes every complete frame/line in conn.in and dispatches it.
  void DrainInput(LoopState& state, Conn& conn);
  void DispatchRequest(Conn& conn, const service::WireRequest& req);
  void DispatchError(Conn& conn, int64_t id, const Status& error);
  /// Delivers a rendered response on the owning loop thread.
  void CompleteOnLoop(size_t loop_index, uint64_t conn_id,
                      std::string response, bool shutdown);
  void SendResponse(LoopState& state, Conn& conn, const std::string& response);
  void TryFlush(LoopState& state, Conn& conn);
  void CloseConn(LoopState& state, Conn& conn);
  void MaybeFinish(LoopState& state, Conn& conn);

  service::RequestRouter* router_;
  Options options_;
  Dispatch dispatch_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<LoopState>> loops_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  size_t next_loop_ = 0;  // round-robin cursor; loop-0 thread only

  metrics::Counter* accepted_total_ = nullptr;
  metrics::Counter* bytes_read_binary_ = nullptr;
  metrics::Counter* bytes_read_json_ = nullptr;
  metrics::Counter* bytes_written_binary_ = nullptr;
  metrics::Counter* bytes_written_json_ = nullptr;
};

}  // namespace licm::net

#endif  // LICM_NET_FRONT_END_H_
