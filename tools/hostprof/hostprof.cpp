// hostprof: a host-time sampling profiler loaded with LD_PRELOAD.
//
//   export LD_PRELOAD=$PWD/build/tools/hostprof/libhostprof.so
//   ./build/examples/npb_runner --benchmark=BT --engine=dynamic --threads=12
//   unset LD_PRELOAD
//   python3 tools/hostprof/report.py
//
// A process that loads the library samples its own CPU time with an
// ITIMER_PROF interval timer: each SIGPROF records the interrupted program
// counter. At exit the process writes `pcs.<pid>` (one hex PC a line) and
// `maps.<pid>` (a copy of /proc/self/maps) into $HOSTPROF_DIR, default the
// working directory. $HOSTPROF_US sets the sampling period in CPU
// microseconds (default 1000). The library never forks or execs; see
// README.md for what that means for forked children and for `taskset`.
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 21;  // 16 MB of PCs

// Zero-fill-on-demand: only the pages that samples reach become resident.
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "hostprof reads the interrupted PC on x86-64 and AArch64 only"
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(long period_us) {
  itimerval it{};
  it.it_interval.tv_usec = period_us;
  it.it_value.tv_usec = period_us;
  ::setitimer(ITIMER_PROF, &it, nullptr);
}

// The kernel does not carry interval timers across fork, so a forked child
// is not sampled; it must not write out its parent's samples either.
void forget_samples_in_child() { g_count.store(0); }

void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

int create(const char* dir, const char* stem) {
  char path[4096];
  std::snprintf(path, sizeof path, "%s/%s.%d", dir, stem,
                static_cast<int>(::getpid()));
  return ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

__attribute__((constructor)) void hostprof_start() {
  const char* us = std::getenv("HOSTPROF_US");
  long period = us != nullptr ? std::strtol(us, nullptr, 10) : 1000;
  if (period <= 0 || period >= 1'000'000) period = 1000;
  struct sigaction sa{};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPROF, &sa, nullptr);
  ::pthread_atfork(nullptr, nullptr, forget_samples_in_child);
  set_timer(period);
}

__attribute__((destructor)) void hostprof_stop() {
  set_timer(0);
  const std::size_t n = std::min(g_count.load(), kMaxSamples);
  if (n == 0) return;
  const char* dir = std::getenv("HOSTPROF_DIR");
  if (dir == nullptr || *dir == '\0') dir = ".";

  const int pcs = create(dir, "pcs");
  if (pcs < 0) return;
  char buf[1 << 16];
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (used + 32 > sizeof buf) {
      write_all(pcs, buf, used);
      used = 0;
    }
    used += static_cast<std::size_t>(
        std::snprintf(buf + used, sizeof buf - used, "%lx\n",
                      static_cast<unsigned long>(g_pcs[i])));
  }
  write_all(pcs, buf, used);
  ::close(pcs);

  const int in = ::open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  const int maps = create(dir, "maps");
  ssize_t got;
  while (in >= 0 && maps >= 0 && (got = ::read(in, buf, sizeof buf)) > 0)
    write_all(maps, buf, static_cast<std::size_t>(got));
  if (in >= 0) ::close(in);
  if (maps >= 0) ::close(maps);
}

}  // namespace
