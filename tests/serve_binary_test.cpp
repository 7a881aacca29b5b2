// Drives the shipped snnskip-serve binary itself (not the libraries behind
// it): a supervisor that launches the daemon with stdout on a pipe must
// see the readiness line promptly — stdout is block-buffered on a pipe, so
// an unflushed line would only surface at exit — the built-in demo models
// must answer real requests over the socket, and SIGTERM must drain and
// exit cleanly.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "serve/client.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using snnskip::Rng;
using snnskip::Shape;
using snnskip::Tensor;

using Clock = std::chrono::steady_clock;

/// Append whatever `fd` yields within `ms` to `out`; false on EOF/error.
bool read_some(int fd, int ms, std::string* out) {
  pollfd p{fd, POLLIN, 0};
  if (poll(&p, 1, ms) <= 0) return true;  // timeout: nothing new yet
  char buf[512];
  const ssize_t n = read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<std::size_t>(n));
  return true;
}

TEST(ServeBinary, ReadinessLineIsFlushedAndSigtermExitsCleanly) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);  // drain warnings land in `out` too
    close(fds[0]);
    close(fds[1]);
    execl(SNNSKIP_SERVE_BIN, SNNSKIP_SERVE_BIN, "--port", "0", "--duration-s",
          "0", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);

  // Readiness: the port line must arrive while the daemon is still up.
  const std::string tag = "serving on 127.0.0.1:";
  std::string out;
  bool open = true;
  std::size_t at = std::string::npos;
  const auto ready_by = Clock::now() + std::chrono::seconds(10);
  while (open && Clock::now() < ready_by) {
    at = out.find(tag);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      break;
    }
    open = read_some(fds[0], 100, &out);
  }
  at = out.find(tag);
  const bool ready =
      at != std::string::npos && out.find('\n', at) != std::string::npos;
  EXPECT_TRUE(ready) << "no readiness line within 10 s; stdout so far:\n"
                     << out;
  const int port = ready ? std::atoi(out.c_str() + at + tag.size()) : 0;
  EXPECT_GT(port, 0) << out;

  // A few sequences to each built-in demo model (resnet18s, 2x8x8 input,
  // 10 classes) through the real wire protocol.
  std::int64_t served = 0;
  if (port > 0) {
    snnskip::serve::ClientOptions co;
    co.port = port;
    snnskip::serve::Client client(co);
    Rng rng(5);
    for (int i = 0; i < 4; ++i) {
      std::vector<Tensor> frames;
      for (int t = 0; t < 6; ++t) {
        frames.push_back(Tensor::bernoulli(Shape{2, 8, 8}, rng, 0.15f));
      }
      const char* model = i % 2 == 0 ? "demo-a" : "demo-b";
      const auto r = client.infer(model, frames);
      EXPECT_TRUE(r.ok) << model << ": " << r.error;
      if (r.ok) {
        EXPECT_EQ(r.value.numel(), 10) << model;
        ++served;
      }
    }
  }

  // Graceful shutdown: drain, final stats, exit code 0. Keep draining the
  // pipe so the daemon never blocks on a full stdout.
  kill(pid, SIGTERM);
  int status = 0;
  pid_t done = 0;
  const auto exit_by = Clock::now() + std::chrono::seconds(30);
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         Clock::now() < exit_by) {
    if (open) {
      open = read_some(fds[0], 50, &out);
    } else {
      usleep(50 * 1000);
    }
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    ADD_FAILURE() << "daemon did not exit within 30 s of SIGTERM";
  }
  close(fds[0]);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal; stdout:\n" << out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  // Clean drain: the final stats line counts every served request and no
  // drain timeout was reported.
  const std::string fin = "[final] ok=";
  const std::size_t f = out.find(fin);
  ASSERT_NE(f, std::string::npos) << out;
  EXPECT_EQ(std::atoll(out.c_str() + f + fin.size()), served) << out;
  EXPECT_EQ(out.find("drain timed out"), std::string::npos) << out;
}

}  // namespace
