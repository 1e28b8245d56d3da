#include "socket_run.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace perfbench {

using namespace streamsched;

namespace {

// Live server pids, for the signal-path cleanup. Plain atomics: the
// handler may read them at any point.
constexpr std::size_t kMaxServers = 8;
std::array<std::atomic<pid_t>, kMaxServers> g_servers{};

void register_server(pid_t pid) {
  for (auto& slot : g_servers) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  throw std::runtime_error("too many live servers");
}

void unregister_server(pid_t pid) {
  for (auto& slot : g_servers) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t status_field(const std::string& status, const std::string& key) {
  const std::size_t at = status.find(key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + key.size() + 1, nullptr, 10);
}

std::string tail_of(const std::string& path) {
  const std::string text = read_file(path);
  return text.size() > 2000 ? text.substr(text.size() - 2000) : text;
}

/// (steal, total) jiffies of the whole machine, from /proc/stat's cpu line:
/// how much CPU the hypervisor took away while a phase ran.
std::pair<double, double> host_steal() {
  std::istringstream cpu(read_file("/proc/stat"));
  std::string label;
  cpu >> label;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; field < 8 && cpu >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::map<std::string, double> stats_map(const net::Response& resp) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : resp.fields) out[key] = std::strtod(value.c_str(), nullptr);
  return out;
}

struct Checker {
  Outcome& outcome;
  const std::vector<std::string>& expected_fp;

  /// A hit must come back src=hit with its tag and the fp= recorded at
  /// set-up.
  void hit(const net::Response& resp, const Line& line, std::size_t resident_index) {
    ++outcome.attempted;
    if (!resp.ok || resp.field("src") != "hit" || resp.field("tag") != line.tag ||
        resp.field("fp") != expected_fp[resident_index]) {
      ++outcome.failed;
      outcome.fail("hit " + line.tag + ": got " + (resp.ok ? "OK" : "ERR " + resp.message) +
                   " src=" + resp.field("src") + " tag=" + resp.field("tag") +
                   " fp=" + resp.field("fp") + ", want fp=" + expected_fp[resident_index]);
    }
  }
};

}  // namespace

void kill_all_servers() {
  for (auto& slot : g_servers) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
}

// ---------------------------------------------------------------- process --

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                             const std::vector<int>& cpus, const std::string& socket_path,
                             const std::string& log_path)
    : socket_path_(socket_path), log_path_(log_path) {
  ::unlink(socket_path.c_str());
  std::vector<std::string> args{binary, "--unix=" + socket_path};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  for (int cpu : cpus) CPU_SET(cpu, &affinity);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies
    // with the load generator even if that is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty() && ::sched_setaffinity(0, sizeof affinity, &affinity) != 0) ::_exit(126);
    const int log = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  register_server(pid);
}

ServerProcess::~ServerProcess() {
  kill_and_reap();
  ::unlink(socket_path_.c_str());
}

void ServerProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  unregister_server(pid_);
  pid_ = -1;
}

net::Client ServerProcess::connect(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    try {
      return net::Client::connect_unix_path(socket_path_);
    } catch (const std::exception&) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        unregister_server(pid_);
        pid_ = -1;
        throw std::runtime_error("server exited before listening; log tail:\n" +
                                 tail_of(log_path_));
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("server did not listen within the timeout; log tail:\n" +
                                 tail_of(log_path_));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

ProcSample ServerProcess::sample() const {
  // schedstat's first field is nanoseconds on CPU; summed over the
  // threads, which all live as long as the server does.
  ProcSample out;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return out;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const std::string task = dir + "/" + entry->d_name;
    out.cpu_s += std::strtod(read_file(task + "/schedstat").c_str(), nullptr) / 1e9;
    const std::string status = read_file(task + "/status");
    out.ctxsw += status_field(status, "voluntary_ctxt_switches") +
                 status_field(status, "nonvoluntary_ctxt_switches");
  }
  ::closedir(tasks);
  return out;
}

double ServerProcess::vm_hwm_mb() const {
  const std::string status = read_file("/proc/" + std::to_string(pid_) + "/status");
  return static_cast<double>(status_field(status, "VmHWM")) / 1024.0;
}

int ServerProcess::wait_exit(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (pid_ > 0 && Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      unregister_server(pid_);
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap();
  return -1;
}

// ------------------------------------------------------------ the phases --

namespace {

/// Cold-admits the resident set back to back, pipelined so that set-up
/// time is server work rather than round-trip waits (which swing with
/// host load); returns its fp= column. One interactive worker answers in
/// send order.
std::vector<std::string> admit_resident(net::Client& client, const Workload& w,
                                        Outcome& outcome) {
  std::string batch;
  for (const Line& line : w.resident) batch += line.text + '\n';
  net::send_all(client.fd(), batch.data(), batch.size());
  std::vector<std::string> fps;
  fps.reserve(w.resident.size());
  for (const Line& line : w.resident) {
    ++outcome.attempted;
    const net::Response resp = client.read_response();
    if (!resp.ok || resp.field("src") != "cold" || resp.field("tag") != line.tag) {
      ++outcome.failed;
      outcome.fail("set-up " + line.tag + ": expected src=cold, got " +
                   (resp.ok ? "src=" + resp.field("src") : "ERR " + resp.message));
    }
    fps.push_back(resp.field("fp"));
  }
  return fps;
}

/// Closes a Window at each boundary, sampling the server's CPU there.
class WindowRecorder {
 public:
  WindowRecorder(const ServerProcess& server, std::vector<Window>& out)
      : server_(server), out_(out), cpu_(server.sample().cpu_s) {}

  void record() { ++current_.ops; }

  void close() {
    const double cpu = server_.sample().cpu_s;
    current_.server_cpu_s = cpu - cpu_;
    out_.push_back(current_);
    current_ = Window{};
    cpu_ = cpu;
  }

 private:
  const ServerProcess& server_;
  std::vector<Window>& out_;
  Window current_;
  double cpu_;
};

void closed_loop_hits(net::Client& client, const Workload& w, double seconds, Checker& check,
                      const ServerProcess& server, SocketResult& r) {
  const auto t0 = Clock::now();
  const auto window = std::chrono::duration<double>(seconds / kWindows);
  WindowRecorder windows(server, r.windows);
  r.hit_us.reserve(static_cast<std::size_t>(seconds * 20000));
  for (std::size_t k = 0; k < kWindows; ++k) {
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(window * (k + 1.0));
    for (std::size_t i = r.hit_us.size(); Clock::now() < end; ++i) {
      const std::size_t d = i % w.resident.size();
      const auto sent = Clock::now();
      const net::Response resp = client.roundtrip(w.resident[d].text);
      const double us = us_between(sent, Clock::now());
      r.hit_us.push_back(us);
      windows.record();
      check.hit(resp, w.resident[d], d);
    }
    windows.close();
  }
}

void cold_loop(net::Client& client, const Workload& w, Outcome& outcome,
               const ServerProcess& server, SocketResult& r) {
  const std::size_t per_window = (w.cold.size() + kWindows - 1) / kWindows;
  WindowRecorder windows(server, r.windows);
  for (std::size_t i = 0; i < w.cold.size(); ++i) {
    const Line& line = w.cold[i];
    ++outcome.attempted;
    const auto t0 = Clock::now();
    const net::Response resp = client.roundtrip(line.text);
    const double us = us_between(t0, Clock::now());
    r.cold_us.push_back(us);
    windows.record();
    if ((i + 1) % per_window == 0 || i + 1 == w.cold.size()) windows.close();
    r.cold_fp.push_back(resp.field("fp"));
    if (!resp.ok || resp.field("src") != "cold" || resp.field("tag") != line.tag) {
      ++outcome.failed;
      outcome.fail("cold " + line.tag + ": expected src=cold, got " +
                   (resp.ok ? "src=" + resp.field("src") : "ERR " + resp.message));
    }
  }
}

}  // namespace

SocketResult run_socket(const Workload& w, const RunOptions& options, Outcome& outcome) {
  SocketResult r;
  const std::string socket_path = options.workdir + "/s.sock";
  const std::string log_path = options.workdir + "/server.log";
  std::unique_ptr<ServerProcess> server;
  net::Client client = net::Client::adopt(net::Fd());
  for (std::size_t k = 0; k < options.setups; ++k) {
    server.reset();  // the previous set-up's server is killed and reaped
    // Timed from the spawn to the first timed request: process start plus
    // cold admission of the resident set. Inputs were generated before.
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(options.server_binary, w.server_flags,
                                             options.server_cpus, socket_path, log_path);
    client = server->connect(30.0);
    const std::vector<std::string> fps = admit_resident(client, w, outcome);
    r.setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
    if (k == 0) {
      r.resident_fp = fps;
    } else if (fps != r.resident_fp) {
      outcome.fail("set-up " + std::to_string(k) +
                   " scheduled the resident set differently from set-up 0");
    }
  }
  if (options.plant_bad_fp && !r.resident_fp.empty()) {
    std::string& fp = r.resident_fp[0];
    fp.back() = fp.back() == '0' ? '1' : '0';
  }
  Checker check{outcome, r.resident_fp};

  const std::map<std::string, double> before = stats_map(client.stats());
  const ProcSample proc0 = server->sample();
  const auto steal0 = host_steal();
  const double gen0 = process_cpu_s();
  const auto t0 = Clock::now();
  if (is_cold_workload(w.kind)) {
    cold_loop(client, w, outcome, *server, r);
  } else {
    closed_loop_hits(client, w, options.seconds, check, *server, r);
  }
  const auto t1 = Clock::now();
  const double gen1 = process_cpu_s();
  const auto steal1 = host_steal();
  const ProcSample proc1 = server->sample();
  const double jiffies = steal1.second - steal0.second;
  r.host_steal_pct = jiffies > 0 ? 100.0 * (steal1.first - steal0.first) / jiffies : 0.0;
  r.stats_end = stats_map(client.stats());
  for (const auto& [key, value] : r.stats_end) {
    const auto it = before.find(key);
    r.stats_diff[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  r.timed_s = us_between(t0, t1) / 1e6;
  r.timed_ops = is_cold_workload(w.kind) ? r.cold_us.size() : r.hit_us.size();
  r.server_cpu_s = proc1.cpu_s - proc0.cpu_s;
  r.server_ctxsw = proc1.ctxsw - proc0.ctxsw;
  r.gen_cpu_s = gen1 - gen0;

  r.server_rss_mb = server->vm_hwm_mb();
  const net::Response down = client.shutdown();
  if (!down.ok) outcome.fail("SHUTDOWN refused: " + down.message);
  if (server->wait_exit(10.0) != 0) outcome.fail("server did not exit cleanly after SHUTDOWN");
  return r;
}

}  // namespace perfbench
