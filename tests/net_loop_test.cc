// Tests of the event-driven data plane (src/net/): epoll loopback
// sessions in both codecs (concurrent connections, pipelining,
// byte-at-a-time delivery, input caps, the shutdown op) and the request
// coalescer's exactly-one-solve guarantee. Socket tests skip when the
// sandbox forbids binding.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "licm/evaluator.h"
#include "net/coalescer.h"
#include "net/front_end.h"
#include "net/wire.h"
#include "service/json.h"
#include "service/server.h"
#include "testing/generator.h"

namespace licm::net {
namespace {

using service::JsonValue;
using service::ParseJson;
using service::QueryService;
using service::RequestRouter;
using service::WireRequest;

// A small solvable fuzz case with its offline-exact bounds (the same
// fixture shape service_test uses).
struct Fixture {
  testing::FuzzCase fuzz;
  double exact_min = 0, exact_max = 0;

  static Fixture Make(uint64_t seed_from = 1) {
    for (uint64_t seed = seed_from; seed < seed_from + 64; ++seed) {
      Fixture f;
      f.fuzz = testing::GenerateCase(seed);
      auto ans = AnswerAggregate(*f.fuzz.query, f.fuzz.db, {});
      if (!ans.ok()) continue;
      f.exact_min = ans->bounds.min.value;
      f.exact_max = ans->bounds.max.value;
      return f;
    }
    ADD_FAILURE() << "no feasible fuzz case in 64 seeds";
    return {};
  }
};

RequestRouter::QueryFactory FixtureFactory(const Fixture& f) {
  return [query = f.fuzz.query](const WireRequest&)
             -> Result<rel::QueryNodePtr> { return query; };
}

// Blocking test client speaking either codec over one socket.
class TestClient {
 public:
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    // A reply that never comes fails the test instead of hanging it.
    const timeval timeout{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  /// Dribbles bytes one send() call each — the short-read regression
  /// drive: every framing layer must survive arbitrary packetization.
  bool SendByteAtATime(const std::string& bytes) {
    for (char c : bytes) {
      if (!SendAll(std::string(1, c))) return false;
    }
    return true;
  }

  Result<std::string> RecvLine() {
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!Fill()) return Status::IOError("connection closed");
    }
  }

  Result<std::string> RecvFramePayload() {
    while (true) {
      size_t consumed = 0;
      Frame frame;
      LICM_ASSIGN_OR_RETURN(bool complete,
                            TryDecodeFrame(buffer_, &consumed, &frame));
      if (complete) {
        buffer_.erase(0, consumed);
        return std::move(frame.payload);
      }
      if (!Fill()) return Status::IOError("connection closed");
    }
  }

  Result<JsonValue> RoundTripLine(const std::string& line) {
    if (!SendAll(line + "\n")) return Status::IOError("send failed");
    LICM_ASSIGN_OR_RETURN(std::string reply, RecvLine());
    return ParseJson(reply);
  }

  Result<JsonValue> RoundTripBinary(const WireRequest& req) {
    if (!SendAll(EncodeRequestFrame(req))) {
      return Status::IOError("send failed");
    }
    LICM_ASSIGN_OR_RETURN(std::string payload, RecvFramePayload());
    return ParseJson(payload);
  }

 private:
  bool Fill() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

// Starts a front end over the fixture and hands it to `body`. Skips when
// the sandbox forbids loopback sockets.
void WithFrontEnd(int num_loops,
                  const std::function<void(const Fixture&, int port)>& body) {
  QueryService svc({.num_workers = 2, .solver_threads = 1});
  Fixture f = Fixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  RequestRouter router(&svc, FixtureFactory(f));
  NetFrontEnd fe(&router, {.num_loops = num_loops});
  Status listening = fe.Listen("127.0.0.1", 0);
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << listening.ToString();
  }
  ASSERT_GT(fe.port(), 0);
  std::thread serve([&] { EXPECT_TRUE(fe.Serve().ok()); });
  body(f, fe.port());
  fe.Stop();
  serve.join();
}

TEST(NetFrontEnd, LineJsonSessionMatchesOfflineBounds) {
  WithFrontEnd(2, [](const Fixture& f, int port) {
    TestClient c1, c2;  // round-robin puts them on different loops
    ASSERT_TRUE(c1.Connect(port));
    ASSERT_TRUE(c2.Connect(port));
    auto pong = c1.RoundTripLine("{\"op\":\"ping\",\"id\":1}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->GetBool("ok", false).value());
    EXPECT_FALSE(pong->GetString("git_sha", "").value().empty());

    auto names = c2.RoundTripLine("{\"op\":\"instances\",\"id\":2}");
    ASSERT_TRUE(names.ok()) << names.status().ToString();
    const JsonValue* arr = names->Find("instances");
    ASSERT_NE(nullptr, arr);
    ASSERT_EQ(1u, arr->array.size());
    EXPECT_EQ("case", arr->array[0].string);

    // Both connections query at once; each answer must match offline.
    ASSERT_TRUE(
        c1.SendAll("{\"op\":\"query\",\"id\":3,\"instance\":\"case\"}\n"));
    ASSERT_TRUE(
        c2.SendAll("{\"op\":\"query\",\"id\":4,\"instance\":\"case\"}\n"));
    for (auto [c, id] : {std::pair{&c1, 3}, std::pair{&c2, 4}}) {
      auto line = c->RecvLine();
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      auto q = ParseJson(*line);
      ASSERT_TRUE(q.ok()) << *line;
      EXPECT_TRUE(q->GetBool("ok", false).value());
      EXPECT_EQ(id, q->GetInt("id", 0).value());
      EXPECT_EQ(f.exact_min, q->GetNumber("min", -1e9).value());
      EXPECT_EQ(f.exact_max, q->GetNumber("max", -1e9).value());
    }

    // Malformed line: typed error, connection survives.
    auto bad = c1.RoundTripLine("not json");
    ASSERT_TRUE(bad.ok());
    EXPECT_FALSE(bad->GetBool("ok", true).value());
    auto again = c1.RoundTripLine("{\"op\":\"ping\",\"id\":5}");
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->GetBool("ok", false).value());

    // Three lines in a single send(), plus a trailing fragment that must
    // stay buffered until its newline arrives. Replies may come in any
    // order.
    ASSERT_TRUE(c2.SendAll(
        "{\"op\":\"ping\",\"id\":22}\n"
        "{\"op\":\"query\",\"id\":23,\"instance\":\"case\"}\n"
        "{\"op\":\"ping\",\"id\":24}\n"
        "{\"op\":\"ping\","));
    std::set<int64_t> ids;
    for (int i = 0; i < 3; ++i) {
      auto line = c2.RecvLine();
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      auto reply = ParseJson(*line);
      ASSERT_TRUE(reply.ok()) << *line;
      EXPECT_TRUE(reply->GetBool("ok", false).value());
      const int64_t id = reply->GetInt("id", 0).value();
      if (id == 23) {
        EXPECT_EQ(f.exact_min, reply->GetNumber("min", -1e9).value());
      }
      ids.insert(id);
    }
    EXPECT_EQ((std::set<int64_t>{22, 23, 24}), ids);
    ASSERT_TRUE(c2.SendAll("\"id\":25}\n"));
    auto tail = c2.RecvLine();
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    auto tail_reply = ParseJson(*tail);
    ASSERT_TRUE(tail_reply.ok()) << *tail;
    EXPECT_TRUE(tail_reply->GetBool("ok", false).value());
    EXPECT_EQ(25, tail_reply->GetInt("id", 0).value());
  });
}

TEST(NetFrontEnd, BinarySessionMatchesOfflineBounds) {
  WithFrontEnd(2, [](const Fixture& f, int port) {
    TestClient c;
    ASSERT_TRUE(c.Connect(port));
    WireRequest ping;
    ping.op = "ping";
    ping.id = 1;
    auto pong = c.RoundTripBinary(ping);
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->GetBool("ok", false).value());
    EXPECT_EQ(1, pong->GetInt("id", 0).value());

    WireRequest query;
    query.op = "query";
    query.id = 2;
    query.instance = "case";
    auto q = c.RoundTripBinary(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_TRUE(q->GetBool("ok", false).value());
    EXPECT_EQ(f.exact_min, q->GetNumber("min", -1e9).value());
    EXPECT_EQ(f.exact_max, q->GetNumber("max", -1e9).value());
  });
}

TEST(NetFrontEnd, ByteAtATimeDeliveryInBothCodecs) {
  WithFrontEnd(1, [](const Fixture& f, int port) {
    {
      TestClient c;
      ASSERT_TRUE(c.Connect(port));
      ASSERT_TRUE(c.SendByteAtATime(
          "{\"op\":\"query\",\"id\":7,\"instance\":\"case\"}\n"));
      auto line = c.RecvLine();
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      auto q = ParseJson(*line);
      ASSERT_TRUE(q.ok());
      EXPECT_TRUE(q->GetBool("ok", false).value());
      EXPECT_EQ(f.exact_min, q->GetNumber("min", -1e9).value());
      EXPECT_EQ(7, q->GetInt("id", 0).value());
    }
    {
      TestClient c;
      ASSERT_TRUE(c.Connect(port));
      WireRequest query;
      query.op = "query";
      query.id = 8;
      query.instance = "case";
      ASSERT_TRUE(c.SendByteAtATime(EncodeRequestFrame(query)));
      auto payload = c.RecvFramePayload();
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      auto q = ParseJson(*payload);
      ASSERT_TRUE(q.ok());
      EXPECT_EQ(f.exact_max, q->GetNumber("max", 1e9).value());
      EXPECT_EQ(8, q->GetInt("id", 0).value());
    }
  });
}

TEST(NetFrontEnd, PipelinedBinaryRequestsAllAnswerById) {
  WithFrontEnd(2, [](const Fixture& f, int port) {
    TestClient c;
    ASSERT_TRUE(c.Connect(port));
    // Six requests in one write; responses may arrive in any order.
    std::string batch;
    for (int id = 10; id < 16; ++id) {
      WireRequest query;
      query.op = "query";
      query.id = id;
      query.instance = "case";
      batch += EncodeRequestFrame(query);
    }
    ASSERT_TRUE(c.SendAll(batch));
    std::set<int64_t> ids;
    for (int i = 0; i < 6; ++i) {
      auto payload = c.RecvFramePayload();
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      auto q = ParseJson(*payload);
      ASSERT_TRUE(q.ok());
      EXPECT_TRUE(q->GetBool("ok", false).value());
      EXPECT_EQ(f.exact_min, q->GetNumber("min", -1e9).value());
      ids.insert(q->GetInt("id", 0).value());
    }
    EXPECT_EQ(6u, ids.size());
    EXPECT_EQ(10, *ids.begin());
    EXPECT_EQ(15, *ids.rbegin());
  });
}

TEST(NetFrontEnd, CorruptBinaryFrameDropsOnlyThatConnection) {
  WithFrontEnd(1, [](const Fixture&, int port) {
    TestClient bad, good;
    ASSERT_TRUE(bad.Connect(port));
    ASSERT_TRUE(good.Connect(port));

    WireRequest ping;
    ping.op = "ping";
    ping.id = 1;
    std::string frame = EncodeRequestFrame(ping);
    frame.back() = static_cast<char>(frame.back() ^ 0x01);  // break the CRC
    ASSERT_TRUE(bad.SendAll(frame));
    auto reply = bad.RecvFramePayload();
    EXPECT_FALSE(reply.ok());  // connection dropped, no resync attempted

    auto pong = good.RoundTripLine("{\"op\":\"ping\",\"id\":2}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->GetBool("ok", false).value());
  });
}

// A newline-free flood past the frame cap must not buffer without
// limit: the line codec answers a typed error and closes that connection
// only.
TEST(NetFrontEnd, OverlongLineGetsTypedErrorAndDropsOnlyThatConnection) {
  WithFrontEnd(1, [](const Fixture&, int port) {
    TestClient flood, good;
    ASSERT_TRUE(flood.Connect(port));
    ASSERT_TRUE(good.Connect(port));
    // The tail of the flood may meet a closed socket; the reply is what
    // counts.
    (void)flood.SendAll("{" + std::string(kMaxFramePayload + 4096, ' '));
    auto line = flood.RecvLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto reply = ParseJson(*line);
    ASSERT_TRUE(reply.ok()) << *line;
    EXPECT_FALSE(reply->GetBool("ok", true).value());
    EXPECT_EQ("OutOfRange", reply->GetString("status", "").value());
    EXPECT_FALSE(flood.RecvLine().ok());  // then the server closes it

    auto pong = good.RoundTripLine("{\"op\":\"ping\",\"id\":2}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->GetBool("ok", false).value());
  });
}

TEST(NetFrontEnd, ShutdownOpStopsServeAfterAcking) {
  for (const bool binary : {true, false}) {
    SCOPED_TRACE(binary ? "binary" : "line-JSON");
    QueryService svc({.num_workers = 1, .solver_threads = 1});
    Fixture f = Fixture::Make();
    ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
    RequestRouter router(&svc, FixtureFactory(f));
    NetFrontEnd fe(&router, {.num_loops = 2});
    Status listening = fe.Listen("127.0.0.1", 0);
    if (!listening.ok()) {
      GTEST_SKIP() << "cannot bind a loopback socket here: "
                   << listening.ToString();
    }
    std::thread serve([&] { EXPECT_TRUE(fe.Serve().ok()); });
    {
      TestClient c;
      ASSERT_TRUE(c.Connect(fe.port()));
      WireRequest bye;
      bye.op = "shutdown";
      bye.id = 9;
      auto ack = binary ? c.RoundTripBinary(bye)
                        : c.RoundTripLine("{\"op\":\"shutdown\",\"id\":9}");
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_TRUE(ack->GetBool("shutting_down", false).value());
    }
    serve.join();  // returns without an explicit Stop()
  }
}

// ------------------------------------------------------------- coalescer --

TEST(Coalescer, NIdenticalConcurrentRequestsTriggerExactlyOneSolve) {
  QueryService svc({.num_workers = 2, .solver_threads = 1});
  Fixture f = Fixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());

  // The solve hook parks the worker until every request is submitted, so
  // all N are concurrent by construction.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> solves{0};
  svc.SetSolveHookForTest([&] {
    solves.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  RequestCoalescer coalescer(&svc);
  constexpr int kN = 16;
  std::atomic<int> done_count{0};
  std::vector<Result<service::QueryResponse>> results(
      kN, Status::Internal("not delivered"));
  std::mutex results_mu;
  for (int i = 0; i < kN; ++i) {
    service::QueryRequest req;
    req.instance = "case";
    req.query = f.fuzz.query;
    req.deadline_s = 1e9;
    coalescer.Execute(std::move(req), [&, i](
                          const Result<service::QueryResponse>& r) {
      std::lock_guard<std::mutex> lock(results_mu);
      results[static_cast<size_t>(i)] = r;
      done_count.fetch_add(1);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (int spins = 0; done_count.load() < kN && spins < 10000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(kN, done_count.load());
  EXPECT_EQ(1, solves.load());
  EXPECT_EQ(kN - 1, coalescer.hits());
  EXPECT_EQ(1, coalescer.misses());
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(f.exact_min, r->min);
    EXPECT_EQ(f.exact_max, r->max);
  }
}

TEST(Coalescer, DifferentDeadlinesDoNotCoalesce) {
  QueryService svc({.num_workers = 2, .solver_threads = 1});
  Fixture f = Fixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  std::atomic<int> solves{0};
  svc.SetSolveHookForTest([&] { solves.fetch_add(1); });

  RequestCoalescer coalescer(&svc);
  std::atomic<int> done_count{0};
  for (double deadline : {1e9, 2e9}) {
    service::QueryRequest req;
    req.instance = "case";
    req.query = f.fuzz.query;
    req.deadline_s = deadline;
    coalescer.Execute(std::move(req),
                      [&](const Result<service::QueryResponse>& r) {
                        EXPECT_TRUE(r.ok());
                        done_count.fetch_add(1);
                      });
  }
  for (int spins = 0; done_count.load() < 2 && spins < 10000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(2, done_count.load());
  EXPECT_EQ(2, solves.load());
  EXPECT_EQ(0, coalescer.hits());
  EXPECT_EQ(2, coalescer.misses());
}

TEST(Coalescer, SequentialRequestsAreMissesNotHits) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  Fixture f = Fixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  RequestCoalescer coalescer(&svc);
  for (int i = 0; i < 3; ++i) {
    std::mutex mu;
    std::condition_variable cv;
    bool delivered = false;
    service::QueryRequest req;
    req.instance = "case";
    req.query = f.fuzz.query;
    req.deadline_s = 1e9;
    coalescer.Execute(std::move(req),
                      [&](const Result<service::QueryResponse>& r) {
                        EXPECT_TRUE(r.ok());
                        std::lock_guard<std::mutex> lock(mu);
                        delivered = true;
                        cv.notify_one();
                      });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return delivered; });
  }
  EXPECT_EQ(0, coalescer.hits());
  EXPECT_EQ(3, coalescer.misses());
}

TEST(Coalescer, AdmissionFailureCompletesEveryWaiter) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  RequestCoalescer coalescer(&svc);
  std::atomic<int> done_count{0};
  service::QueryRequest req;
  req.instance = "no-such-instance";
  coalescer.Execute(std::move(req),
                    [&](const Result<service::QueryResponse>& r) {
                      EXPECT_FALSE(r.ok());
                      done_count.fetch_add(1);
                    });
  EXPECT_EQ(1, done_count.load());  // admission failures complete inline
}

}  // namespace
}  // namespace licm::net
