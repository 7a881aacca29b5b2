// Serve traffic (traffic.h) and `pb serve-gen`, the load generator the
// serve workloads run against a snnskip-serve daemon.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "serve/protocol.h"
#include "traffic.h"
#include "util/rng.h"

namespace pb {

using snnskip::Rng;
using snnskip::Shape;
using snnskip::Tensor;
using snnskip::Timer;
namespace wire = snnskip::serve::wire;

ServeWorkload serve_workload(const std::string& name) {
  ServeWorkload w;
  if (name == "serve-steady") {
    w.open_loop = true;
    w.rate = 50.0;
    w.conns = 2;
    w.models = 1;
  } else if (name == "serve-batch") {
    w.open_loop = false;
    w.window = 32;  // 2 workers x max_batch 8 x 2
    w.conns = 4;
    w.models = 2;
  } else {
    throw std::invalid_argument("unknown serve workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

RequestPool build_pool(const std::vector<std::string>& manifests,
                       std::uint64_t seed, std::size_t per_model) {
  RequestPool pool;
  serve::ModelRegistry registry(manifests.size());
  for (std::size_t m = 0; m < manifests.size(); ++m) {
    serve::ModelSpec spec = serve::ModelSpec::from_manifest(manifests[m]);
    pool.specs.push_back(spec);
    // Same manifest at batch 1: the registry warms BN at a canonical
    // batch-1 shape, so the weights equal the served batch-8 model's.
    spec.name += "#ref";
    spec.batch = 1;
    serve::ModelHandle ref = registry.load(spec);
    pool.ref_models.push_back(ref);

    const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
    const Shape in = ref->plan()->input_shape;
    Rng rng(seed * 1000003ull + m);
    auto lease = ref->lease();
    Tensor out;
    std::vector<std::vector<Tensor>> seqs;
    std::vector<Tensor> refs;
    for (std::size_t r = 0; r < per_model; ++r) {
      std::vector<Tensor> frames;
      lease->reset();
      Tensor sum;
      for (std::int64_t t = 0; t < spec.config.max_timesteps; ++t) {
        frames.push_back(Tensor::bernoulli(frame, rng, 0.15f));
        lease->step(frames.back().reshape(in), &out);
        if (t == 0) {
          sum = out.reshape(Shape{out.numel()});
        } else {
          sum.add_(out.reshape(Shape{out.numel()}));
        }
      }
      seqs.push_back(std::move(frames));
      refs.push_back(std::move(sum));
    }
    pool.frames.push_back(std::move(seqs));
    pool.refs.push_back(std::move(refs));
  }
  return pool;
}

bool matches_reference(const Tensor& got, const Tensor& ref) {
  if (got.numel() != ref.numel()) return false;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    const float v = got.data()[i];
    // Written so that a NaN in either tensor fails the comparison.
    if (!std::isfinite(v) || !(std::abs(v - ref.data()[i]) <= kOutputTol)) {
      return false;
    }
  }
  return true;
}

namespace {

class SocketChannel final : public Channel {
 public:
  SocketChannel(int port, int conns) {
    for (int c = 0; c < conns; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket(): " + errno_str());
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        const std::string err = errno_str();
        ::close(fd);
        throw std::runtime_error("connect(): " + err);
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }
  ~SocketChannel() override {
    for (Conn& c : conns_) ::close(c.fd);
  }
  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  void send(std::uint64_t id, const std::string& model,
            const std::vector<Tensor>& frames) override {
    wire::RequestMsg msg;
    msg.id = id;
    msg.model = model;
    msg.frames = frames;
    const Timer t0;
    std::vector<std::uint8_t> bytes = wire::encode_request(msg);
    encode_s_ += t0.elapsed_s();
    ++encodes_;
    bytes_ += static_cast<double>(bytes.size());
    Conn& c = conns_[next_conn_++ % conns_.size()];
    c.out.insert(c.out.end(), bytes.begin(), bytes.end());
    flush(c);
  }

  void wait(Clock::time_point until, std::vector<Completion>* out) override {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.size() > conns_[i].sent ? POLLOUT : 0));
    }
    // Nanosecond timeout: a millisecond poll() would send open-loop
    // requests up to 1 ms after they are due.
    const std::int64_t left_ns = std::clamp<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(until - Clock::now())
            .count(),
        0, 100'000'000);
    const timespec timeout{static_cast<time_t>(left_ns / 1'000'000'000),
                           static_cast<long>(left_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll(): " + errno_str());
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & POLLOUT) != 0) flush(conns_[i]);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_all(conns_[i], out);
      }
    }
  }

  double encode_us() const override {
    return encodes_ > 0 ? 1e6 * encode_s_ / static_cast<double>(encodes_) : 0.0;
  }
  double decode_us() const override {
    return decodes_ > 0 ? 1e6 * decode_s_ / static_cast<double>(decodes_) : 0.0;
  }
  double bytes_per_op() const override {
    return encodes_ > 0 ? bytes_ / static_cast<double>(encodes_) : 0.0;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t sent = 0;
    wire::FrameAssembler in;
  };

  static std::string errno_str() { return std::strerror(errno); }

  static void flush(Conn& c) {
    while (c.sent < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n > 0) {
        c.sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        throw std::runtime_error("send(): " + errno_str());
      }
    }
    c.out.clear();
    c.sent = 0;
  }

  void read_all(Conn& c, std::vector<Completion>* out) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error(n == 0 ? std::string("daemon closed a connection")
                                      : "recv(): " + errno_str());
    }
    while (auto frame = c.in.next()) {
      const Clock::time_point at = Clock::now();
      if (frame->type == wire::FrameType::Goaway) {
        throw std::runtime_error("daemon sent GOAWAY mid-run");
      }
      if (frame->type != wire::FrameType::Response || !frame->crc_ok) {
        throw std::runtime_error("malformed or torn response frame");
      }
      const Timer decode;
      wire::ResponseMsg msg =
          wire::decode_response(frame->payload.data(), frame->payload.size());
      decode_s_ += decode.elapsed_s();
      ++decodes_;
      bytes_ += static_cast<double>(wire::kHeaderBytes + frame->payload.size());
      Completion done;
      done.id = msg.id;
      done.ok = msg.status == wire::Status::Ok;
      done.value = std::move(msg.value);
      done.error = done.ok ? std::string()
                           : std::string(wire::status_name(msg.status)) +
                                 ": " + msg.error;
      done.at = at;
      out->push_back(std::move(done));
    }
  }

  std::vector<Conn> conns_;
  std::size_t next_conn_ = 0;
  double encode_s_ = 0.0, decode_s_ = 0.0, bytes_ = 0.0;
  std::int64_t encodes_ = 0, decodes_ = 0;
};

class InprocChannel final : public Channel {
 public:
  explicit InprocChannel(serve::Server& server) : server_(server) {}
  InprocChannel(const InprocChannel&) = delete;
  InprocChannel& operator=(const InprocChannel&) = delete;

  void send(std::uint64_t id, const std::string& model,
            const std::vector<Tensor>& frames) override {
    server_.submit_async(model, frames, {}, [this, id](serve::Outcome o) {
      Completion done;
      done.at = Clock::now();
      done.id = id;
      done.ok = o.status == serve::RequestStatus::Ok;
      done.value = std::move(o.value);
      done.error = std::move(o.error);
      std::lock_guard<std::mutex> lk(mu_);
      done_.push_back(std::move(done));
      cv_.notify_one();
    });
  }

  void wait(Clock::time_point until, std::vector<Completion>* out) override {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_until(lk, std::min(until, Clock::now() + std::chrono::milliseconds(100)),
                   [this] { return !done_.empty(); });
    for (Completion& c : done_) out->push_back(std::move(c));
    done_.clear();
  }

 private:
  serve::Server& server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> done_;  // guarded by mu_
};

}  // namespace

std::unique_ptr<Channel> socket_channel(int port, int conns) {
  return std::make_unique<SocketChannel>(port, conns);
}

std::unique_ptr<Channel> inproc_channel(serve::Server& server) {
  return std::make_unique<InprocChannel>(server);
}

TrafficResult run_traffic(const ServeWorkload& w, const RequestPool& pool,
                          Channel& ch, double warmup_s, double seconds,
                          int cpu_pid) {
  struct InFlight {
    Clock::time_point due;
    std::size_t model = 0, req = 0;
    int window = -1;  ///< measurement window of its due time; -1 = not measured
  };
  using dsec = std::chrono::duration<double>;
  auto at = [](Clock::time_point base, double s) {
    return base + std::chrono::duration_cast<Clock::duration>(dsec(s));
  };
  const int nwin = std::max(1, static_cast<int>(std::lround(seconds / kWindowS)));
  const double win_s = seconds / nwin;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point win0 = at(t0, warmup_s);
  const Clock::time_point win1 = at(win0, seconds);
  const std::size_t per_model = pool.frames[0].size();
  auto window_of = [&](Clock::time_point t) {
    if (t < win0 || t >= win1) return -1;
    return std::min(nwin - 1, static_cast<int>(dsec(t - win0).count() / win_s));
  };

  TrafficResult res;
  res.gap_ms = w.open_loop ? 1e3 / w.rate : 0.0;
  // Latencies of the ok requests due in each measurement window.
  std::vector<std::vector<double>> wins(static_cast<std::size_t>(nwin));
  std::map<std::uint64_t, InFlight> inflight;
  std::uint64_t next = 0;
  double cpu0 = -1.0;
  std::int64_t cpu_ops = 0;  // answers since cpu0 was read
  Clock::time_point last_done = win0;
  std::vector<Completion> done;

  auto due_of = [&](std::uint64_t k) {
    return at(t0, static_cast<double>(k) / w.rate);
  };
  auto send_next = [&](Clock::time_point due, Clock::time_point now) {
    const std::uint64_t k = next++;
    InFlight f;
    f.due = due;
    f.model = k % w.models;
    f.req = (k / w.models) % per_model;
    f.window = window_of(due);
    if (f.window >= 0) {
      ++res.attempted;
      if (w.open_loop) res.lag_ms.push_back(1e3 * dsec(now - due).count());
    }
    inflight.emplace(k + 1, f);
    ch.send(k + 1, pool.specs[f.model].name, pool.frames[f.model][f.req]);
  };

  const Clock::time_point give_up = win1 + std::chrono::seconds(10);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (cpu0 < 0.0 && now >= win0) cpu0 = process_cpu_s(cpu_pid);
    if (now < win1) {
      if (w.open_loop) {
        while (due_of(next) <= now) send_next(due_of(next), now);
      } else {
        while (inflight.size() < static_cast<std::size_t>(w.window)) {
          send_next(now, now);
        }
      }
    } else if (inflight.empty() || now >= give_up) {
      break;
    }
    Clock::time_point until = give_up;
    if (now < win1) {
      until = std::min(cpu0 < 0.0 ? win0 : win1,
                       w.open_loop ? due_of(next) : win1);
    }
    done.clear();
    ch.wait(until, &done);
    for (Completion& c : done) {
      auto it = inflight.find(c.id);
      if (it == inflight.end()) throw std::runtime_error("response to an unknown id");
      const InFlight f = it->second;
      inflight.erase(it);
      if (cpu0 >= 0.0) ++cpu_ops;
      if (f.window < 0) continue;
      last_done = std::max(last_done, c.at);
      if (!c.ok) {
        ++res.errors;
        std::fprintf(stderr, "request %llu failed: %s\n",
                     static_cast<unsigned long long>(c.id), c.error.c_str());
      } else if (!matches_reference(c.value, pool.refs[f.model][f.req])) {
        ++res.wrong;
        std::fprintf(stderr, "request %llu: response differs from the reference\n",
                     static_cast<unsigned long long>(c.id));
      } else {
        ++res.ok;
        wins[static_cast<std::size_t>(f.window)].push_back(
            1e3 * dsec(c.at - f.due).count());
      }
    }
  }
  for (const auto& kv : inflight) {
    if (kv.second.window >= 0) ++res.errors;  // never answered
  }

  const double cpu1 = process_cpu_s(cpu_pid);
  std::vector<double> p50, p90;
  for (const std::vector<double>& lat : wins) {
    p50.push_back(median(lat));
    p90.push_back(quantile(lat, 0.9));
  }
  res.p50_ms = median(p50);
  res.p90_ms = median(p90);
  const double span_s = dsec(last_done - win0).count();
  res.throughput_per_s = span_s > 0.0 ? static_cast<double>(res.ok) / span_s : 0.0;
  res.cpu_ms_per_op =
      cpu_ops > 0 ? 1e3 * (cpu1 - cpu0) / static_cast<double>(cpu_ops) : 0.0;
  return res;
}

int run_serve_gen(const snnskip::CliArgs& args) {
  const ServeWorkload w = serve_workload(args.get("workload", ""));
  const int port = args.get_int("port", 0);
  const int pid = args.get_int("pid", 0);
  const double seconds = args.get_double("seconds", 10.0);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::vector<std::string> manifests = split_list(args.get("manifests", ""));
  if (port <= 0 || pid <= 0 || manifests.size() < w.models) {
    throw std::invalid_argument("serve-gen needs --port, --pid and --manifests");
  }

  const RequestPool pool = build_pool(manifests, seed, 64);
  auto ch = socket_channel(port, w.conns);
  const TrafficResult t = run_traffic(w, pool, *ch, 1.0, seconds, pid);

  Record r;
  r.set("attempted", static_cast<double>(t.attempted));
  r.set("ok", static_cast<double>(t.ok));
  r.set("wrong", static_cast<double>(t.wrong));
  r.set("errors", static_cast<double>(t.errors));
  r.set("p50_ms", t.p50_ms);
  r.set("p90_ms", t.p90_ms);
  r.set("throughput_per_s", t.throughput_per_s);
  r.set("cpu_ms_per_op", t.cpu_ms_per_op);
  r.set("rss_mb", process_hwm_mb(pid));
  r.set("gen.lag_ms.p99", quantile(t.lag_ms, 0.99));
  r.set("gen.lag_ms.max", quantile(t.lag_ms, 1.0));
  r.set("gen.gap_ms", t.gap_ms);
  r.set("serve.transport.encode_us", ch->encode_us());
  r.set("serve.transport.decode_us", ch->decode_us());
  r.set("serve.transport.bytes_per_op", ch->bytes_per_op());
  stamp_environment(r);
  std::printf("%s\n", r.json().c_str());
  return 0;
}

}  // namespace pb
