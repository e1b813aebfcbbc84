#include "net/front_end.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace licm::net {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

NetFrontEnd::NetFrontEnd(service::RequestRouter* router, Options options)
    : router_(router), options_(options) {
  if (options_.num_loops < 1) options_.num_loops = 1;
  auto& reg = metrics::MetricsRegistry::Default();
  accepted_total_ = reg.GetCounter("licm_net_accepted_total");
  bytes_read_binary_ =
      reg.GetCounter("licm_net_bytes_read_total", {{"codec", "binary"}});
  bytes_read_json_ =
      reg.GetCounter("licm_net_bytes_read_total", {{"codec", "json"}});
  bytes_written_binary_ =
      reg.GetCounter("licm_net_bytes_written_total", {{"codec", "binary"}});
  bytes_written_json_ =
      reg.GetCounter("licm_net_bytes_written_total", {{"codec", "json"}});
  for (int i = 0; i < options_.num_loops; ++i) {
    auto state = std::make_unique<LoopState>();
    const std::string label = std::to_string(i);
    state->open_connections =
        reg.GetGauge("licm_net_open_connections", {{"loop", label}});
    state->loop.set_wakeup_counter(
        reg.GetCounter("licm_net_epoll_wakeups_total", {{"loop", label}}));
    loops_.push_back(std::move(state));
  }
}

NetFrontEnd::~NetFrontEnd() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status NetFrontEnd::Listen(const std::string& host, int port) {
  for (auto& state : loops_) LICM_RETURN_NOT_OK(state->loop.status());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 1024) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  LICM_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status NetFrontEnd::Serve() {
  if (listen_fd_ < 0) return Status::Internal("Serve() before Listen()");
  LICM_RETURN_NOT_OK(loops_[0]->loop.Add(
      listen_fd_, EPOLLIN | EPOLLET, [this](uint32_t) { AcceptReady(); }));

  std::vector<std::thread> threads;
  for (size_t i = 1; i < loops_.size(); ++i) {
    threads.emplace_back([loop = &loops_[i]->loop] { loop->Run(); });
  }
  loops_[0]->loop.Run();

  // Loop 0 exited (Stop() or a shutdown request already ran) — bring the
  // rest down and release every connection.
  for (auto& state : loops_) state->loop.Stop();
  for (std::thread& t : threads) t.join();
  for (auto& state : loops_) {
    for (auto& [id, conn] : state->conns) {
      state->loop.Remove(conn->fd);
      ::close(conn->fd);
      state->open_connections->Add(-1.0);
    }
    state->conns.clear();
  }
  return Status::OK();
}

void NetFrontEnd::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& state : loops_) state->loop.Stop();
}

void NetFrontEnd::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained; anything else: retried on next event
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_total_->Increment();
    const size_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (target == 0) {
      AdoptConnection(0, fd);
    } else {
      loops_[target]->loop.Post(
          [this, target, fd] { AdoptConnection(target, fd); });
    }
  }
}

void NetFrontEnd::AdoptConnection(size_t loop_index, int fd) {
  LoopState& state = *loops_[loop_index];
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->loop_index = loop_index;
  const uint64_t id = conn->id;
  Status added = state.loop.Add(
      fd, EPOLLIN | EPOLLRDHUP | EPOLLET,
      [this, loop_index, id](uint32_t events) {
        ConnReady(loop_index, id, events);
      });
  if (!added.ok()) {
    ::close(fd);
    return;
  }
  state.open_connections->Add(1.0);
  state.conns.emplace(id, std::move(conn));
}

void NetFrontEnd::ConnReady(size_t loop_index, uint64_t conn_id,
                            uint32_t events) {
  LoopState& state = *loops_[loop_index];
  auto it = state.conns.find(conn_id);
  if (it == state.conns.end()) return;  // raced with close
  Conn& conn = *it->second;
  if (events & EPOLLERR) {
    CloseConn(state, conn);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
    ReadReady(state, conn);
    if (state.conns.find(conn_id) == state.conns.end()) return;
  }
  if (events & EPOLLOUT) TryFlush(state, conn);
}

void NetFrontEnd::ReadReady(LoopState& state, Conn& conn) {
  char chunk[16384];
  // A dead connection reads nothing more; it closes once its queued
  // responses are out.
  while (!conn.dead) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // ET: drained
      CloseConn(state, conn);
      return;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    conn.in.append(chunk, static_cast<size_t>(n));
    if (conn.codec == Codec::kUnknown) {
      conn.codec = static_cast<uint8_t>(conn.in[0]) == kWireMagic
                       ? Codec::kBinary
                       : Codec::kLineJson;
    }
    (conn.codec == Codec::kBinary ? bytes_read_binary_ : bytes_read_json_)
        ->Increment(static_cast<int64_t>(n));
    // Decoding chunk by chunk keeps conn.in within one chunk of the
    // codec's size cap, however fast the peer writes.
    DrainInput(state, conn);
  }
  MaybeFinish(state, conn);
}

void NetFrontEnd::DrainInput(LoopState& state, Conn& conn) {
  (void)state;
  if (conn.codec == Codec::kBinary) {
    while (!conn.dead) {
      size_t consumed = 0;
      Frame frame;
      auto decoded = TryDecodeFrame(conn.in, &consumed, &frame);
      if (!decoded.ok()) {
        // Framing is broken — there is no resync point in the stream, so
        // the connection dies (after flushing responses already queued).
        conn.dead = true;
        break;
      }
      if (!*decoded) break;  // partial frame: wait for more bytes
      conn.in.erase(0, consumed);
      if (frame.type != kFrameRequest) {
        conn.dead = true;
        break;
      }
      auto req = DecodeRequestPayload(frame.payload);
      if (!req.ok()) {
        // The frame itself was intact (CRC passed): answer the malformed
        // payload like the JSON codec answers a malformed line.
        DispatchError(conn, -1, req.status());
        continue;
      }
      DispatchRequest(conn, *req);
    }
    return;
  }
  // Line-JSON codec. The newline search resumes past the bytes earlier
  // drains already scanned, so a line costs linear time however it is
  // chunked.
  size_t start = 0;
  for (size_t nl = conn.in.find('\n', conn.line_scanned);
       nl != std::string::npos; nl = conn.in.find('\n', start)) {
    std::string line = conn.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    auto parsed = service::ParseRequestLine(line);
    if (!parsed.ok()) {
      DispatchError(conn, -1, parsed.status());
      continue;
    }
    DispatchRequest(conn, *parsed);
  }
  conn.in.erase(0, start);
  conn.line_scanned = conn.in.size();
  if (conn.in.size() > kMaxFramePayload) {
    // A pending line longer than the binary codec's frame cap: answer a
    // typed error, then close once it is flushed, as for a corrupt frame.
    DispatchError(conn, -1,
                  Status::OutOfRange("request line exceeds " +
                                     std::to_string(kMaxFramePayload) +
                                     " bytes without a newline"));
    conn.dead = true;
  }
}

void NetFrontEnd::DispatchRequest(Conn& conn, const service::WireRequest& req) {
  ++conn.inflight;
  const size_t loop_index = conn.loop_index;
  const uint64_t conn_id = conn.id;
  auto done = [this, loop_index, conn_id](std::string response,
                                          bool shutdown) {
    CompleteOnLoop(loop_index, conn_id, std::move(response), shutdown);
  };
  if (dispatch_) {
    dispatch_(req, std::move(done));
  } else {
    router_->HandleAsync(req, std::move(done));
  }
}

void NetFrontEnd::DispatchError(Conn& conn, int64_t id, const Status& error) {
  ++conn.inflight;
  CompleteOnLoop(conn.loop_index, conn.id, service::RenderError(id, error),
                 false);
}

void NetFrontEnd::CompleteOnLoop(size_t loop_index, uint64_t conn_id,
                                 std::string response, bool shutdown) {
  // Always a Post, even from the loop thread itself: completions never
  // run reentrantly under DrainInput.
  loops_[loop_index]->loop.Post(
      [this, loop_index, conn_id, response = std::move(response), shutdown] {
        LoopState& state = *loops_[loop_index];
        auto it = state.conns.find(conn_id);
        if (it == state.conns.end()) return;  // connection died first
        Conn& conn = *it->second;
        --conn.inflight;
        if (shutdown) conn.shutdown_after = true;
        SendResponse(state, conn, response);
      });
}

void NetFrontEnd::SendResponse(LoopState& state, Conn& conn,
                               const std::string& response) {
  if (conn.codec == Codec::kBinary) {
    conn.out.append(EncodeResponseFrame(response));
  } else {
    conn.out.append(response);
    conn.out.push_back('\n');
  }
  TryFlush(state, conn);
}

void NetFrontEnd::TryFlush(LoopState& state, Conn& conn) {
  size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + sent,
                             conn.out.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        (conn.codec == Codec::kBinary ? bytes_written_binary_
                                      : bytes_written_json_)
            ->Increment(static_cast<int64_t>(sent));
        conn.out.erase(0, sent);
        if (!conn.want_write) {
          conn.want_write = true;
          state.loop.Mod(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET);
        }
        return;
      }
      CloseConn(state, conn);
      return;
    }
    sent += static_cast<size_t>(w);
  }
  (conn.codec == Codec::kBinary ? bytes_written_binary_ : bytes_written_json_)
      ->Increment(static_cast<int64_t>(sent));
  conn.out.clear();
  if (conn.want_write) {
    conn.want_write = false;
    state.loop.Mod(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLET);
  }
  MaybeFinish(state, conn);
}

void NetFrontEnd::MaybeFinish(LoopState& state, Conn& conn) {
  if (!conn.out.empty()) return;
  if (conn.inflight > 0) return;
  if (conn.shutdown_after) {
    CloseConn(state, conn);
    Stop();
    return;
  }
  if (conn.dead || conn.peer_closed) CloseConn(state, conn);
}

void NetFrontEnd::CloseConn(LoopState& state, Conn& conn) {
  state.loop.Remove(conn.fd);
  ::close(conn.fd);
  state.open_connections->Add(-1.0);
  state.conns.erase(conn.id);  // frees `conn` — must be the last touch
}

}  // namespace licm::net
