#include "service/persistence.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "net/wire.hpp"
#include "schedule/metrics.hpp"
#include "service/daemon.hpp"
#include "util/log.hpp"

namespace streamsched {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf);
}

bool parse_hex16(const std::string& token, std::uint64_t& out) {
  if (token.size() != 16) return false;
  out = 0;
  for (char ch : token) {
    int digit;
    if (ch >= '0' && ch <= '9') {
      digit = ch - '0';
    } else if (ch >= 'a' && ch <= 'f') {
      digit = ch - 'a' + 10;
    } else {
      return false;
    }
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

// v3 entry lines carry only what the publish gate cannot derive from the
// schedule: the variant and model the entry is cached under, and the
// escalation factor its admission settled on.
constexpr char kMagic[] = "#streamsched-cache v3";

/// Rebuilds one entry from its three lines against the daemon's platform,
/// leaving every claim it serves to the publish gate. Throws SnapshotError
/// on a malformed entry line, net::WireError on a malformed dag or sched
/// line.
std::shared_ptr<CachedPlacement> parse_entry(const std::string& entry_line,
                                             const std::string& dag_wire,
                                             const std::string& sched_wire,
                                             const PlacementDaemon& daemon) {
  std::optional<AlgoVariant> variant;
  std::optional<FaultModel> model;
  std::optional<double> factor;
  std::istringstream tokens(entry_line);
  std::string token;
  tokens >> token;  // consume "entry"
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw SnapshotError("snapshot entry token without '=': " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key != "variant" && key != "model" && key != "factor") {
      throw SnapshotError("snapshot entry has unknown field: " + key);
    }
    try {
      if (key == "variant") {
        variant = AlgoVariant::parse(value);
      } else if (key == "model") {
        model = FaultModel::parse(value);
      } else {
        factor = net::parse_wire_double(value);
      }
    } catch (const std::exception& e) {
      throw SnapshotError("snapshot entry " + key + ": " + e.what());
    }
  }
  if (!variant || !model || !factor) {
    throw SnapshotError("snapshot entry missing variant=, model= or factor=");
  }

  auto dag = std::make_shared<const Dag>(net::parse_dag_wire(dag_wire));
  Schedule schedule = net::parse_schedule_wire(sched_wire, *dag, daemon.platform());
  // eps_want is the ε its admission scheduled at: what its variant and
  // model resolve to on this platform and DAG.
  SchedulerOptions asked;
  asked.fault_model = *model;
  const CopyId eps_want =
      variant->adjusted(asked).resolved(daemon.platform(), dag->num_tasks()).eps;

  auto placement = std::make_shared<CachedPlacement>(std::move(dag), daemon.platform_ptr(),
                                                     std::move(schedule));
  placement->model = *model;
  placement->variant = variant->name();
  placement->period_factor = *factor;
  placement->repair.success = true;
  // The served repair_comms= counts every repair channel of the schedule:
  // its admission's and its event repairs' alike.
  placement->repair.added_comms = static_cast<std::uint32_t>(num_repair_comms(placement->schedule));
  placement->eps_want = eps_want;
  return placement;
}

/// Directory part of `path` ("." when none) — for fsync after rename.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Writes `body` to `path` atomically: `<path>.tmp` + fsync + rename +
/// directory fsync. Throws SnapshotError on any failure (the tmp file is
/// unlinked best-effort on the way out).
void write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw SnapshotError("cannot open cache snapshot for writing: " + tmp + " (" +
                        std::strerror(errno) + ")");
  }
  std::size_t off = 0;
  while (off < body.size()) {
    const ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw SnapshotError("cache snapshot write failed: " + tmp + " (" + std::strerror(err) +
                          ")");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw SnapshotError("cache snapshot fsync failed: " + tmp + " (" + std::strerror(err) +
                        ")");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw SnapshotError("cache snapshot rename failed: " + path + " (" + std::strerror(err) +
                        ")");
  }
  // Persist the rename itself; failure here is not a torn file, so log only.
  const int dfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    if (::fsync(dfd) != 0) {
      log_warn() << "cache snapshot directory fsync failed: " << dir_of(path) << " ("
                 << std::strerror(errno) << ")";
    }
    ::close(dfd);
  }
}

}  // namespace

SnapshotSaveStats save_cache_snapshot(const PlacementDaemon& daemon, const std::string& path) {
  std::string body(kMagic);
  body += '\n';
  body += "platform " + hex16(platform_fingerprint(daemon.platform())) + '\n';

  SnapshotSaveStats stats;
  for (const auto& placement : daemon.snapshot_entries()) {
    body += "entry variant=" + placement->variant + " model=" + placement->model.to_string() +
            " factor=" + net::wire_double(placement->period_factor) + '\n';
    body += "dag " + net::format_dag_wire(*placement->dag) + '\n';
    body += "sched " + net::format_schedule_wire(placement->schedule) + '\n';
    ++stats.entries;
  }
  body += "checksum " + hex16(Fnv64().str(body).value()) + '\n';

  write_file_atomic(path, body);
  stats.bytes = body.size();
  log_info() << "cache snapshot saved: " << path << " entries=" << stats.entries
             << " bytes=" << stats.bytes;
  return stats;
}

SnapshotLoadStats load_cache_snapshot(PlacementDaemon& daemon, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("cannot open cache snapshot: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_cache_snapshot_text(daemon, buffer.str(), path);
}

SnapshotLoadStats load_cache_snapshot_text(PlacementDaemon& daemon, const std::string& content,
                                           const std::string& path) {

  // Split into lines, tracking the byte offset of each, so the checksum
  // can be recomputed over exactly the bytes preceding its own line.
  std::vector<std::pair<std::size_t, std::string>> lines;  // (offset, text)
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      throw SnapshotError("cache snapshot is truncated (missing final newline): " + path);
    }
    lines.emplace_back(start, content.substr(start, end - start));
    start = end + 1;
  }

  if (lines.size() < 3 || lines[0].second != kMagic) {
    throw SnapshotError("not a streamsched cache snapshot (bad header): " + path);
  }

  const auto& [checksum_offset, checksum_line] = lines.back();
  std::uint64_t claimed = 0;
  if (checksum_line.rfind("checksum ", 0) != 0 ||
      !parse_hex16(checksum_line.substr(9), claimed)) {
    throw SnapshotError("cache snapshot has no valid checksum line: " + path);
  }
  const std::uint64_t actual = Fnv64().str(content.substr(0, checksum_offset)).value();
  if (actual != claimed) {
    throw SnapshotError("cache snapshot checksum mismatch (corrupted or torn write): " + path);
  }

  std::uint64_t snapshot_platform = 0;
  if (lines[1].second.rfind("platform ", 0) != 0 ||
      !parse_hex16(lines[1].second.substr(9), snapshot_platform)) {
    throw SnapshotError("cache snapshot has no valid platform line: " + path);
  }
  const std::uint64_t live_platform = platform_fingerprint(daemon.platform());
  if (snapshot_platform != live_platform) {
    throw SnapshotError("cache snapshot was taken against a different platform (snapshot " +
                        hex16(snapshot_platform) + ", daemon " + hex16(live_platform) +
                        "): " + path);
  }

  SnapshotLoadStats stats;
  std::size_t i = 2;
  const std::size_t last = lines.size() - 1;  // checksum line
  while (i < last) {
    if (lines[i].second.rfind("entry ", 0) != 0) {
      throw SnapshotError("cache snapshot expected an entry line, got: " + lines[i].second);
    }
    if (i + 2 >= last || lines[i + 1].second.rfind("dag ", 0) != 0 ||
        lines[i + 2].second.rfind("sched ", 0) != 0) {
      throw SnapshotError("cache snapshot entry is missing its dag/sched lines");
    }
    std::shared_ptr<CachedPlacement> placement;
    try {
      placement = parse_entry(lines[i].second, lines[i + 1].second.substr(4),
                              lines[i + 2].second.substr(6), daemon);
    } catch (const net::WireError& e) {
      // Framing is intact (checksum passed) but the payload doesn't parse:
      // a format-version skew, not bit rot. Reject the file, not the entry.
      throw SnapshotError(std::string("cache snapshot entry does not parse: ") + e.what());
    }
    i += 3;
    ++stats.entries;
    if (daemon.restore(placement)) {
      ++stats.restored;
    } else {
      ++stats.stale;
      log_warn() << "snapshot entry dropped: variant=" << placement->variant
                 << " model=" << placement->model.to_string()
                 << " does not survive the daemon's live failure set";
    }
  }

  log_info() << "cache snapshot loaded: " << path << " entries=" << stats.entries
             << " restored=" << stats.restored << " stale=" << stats.stale;
  return stats;
}

std::vector<SnapshotGeneration> list_snapshot_generations(const std::string& base) {
  std::vector<SnapshotGeneration> generations;
  const std::string dir = dir_of(base);
  const std::string stem =
      (base.rfind('/') == std::string::npos) ? base : base.substr(base.rfind('/') + 1);
  const std::string prefix = stem + ".g";

  if (DIR* dp = ::opendir(dir.c_str())) {
    while (const dirent* ent = ::readdir(dp)) {
      const std::string name = ent->d_name;
      if (name.rfind(prefix, 0) != 0 || name.size() == prefix.size()) continue;
      std::uint64_t seq = 0;
      bool numeric = true;
      for (std::size_t i = prefix.size(); i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          numeric = false;
          break;
        }
        seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
      }
      if (!numeric) continue;  // e.g. a stale <base>.g<seq>.tmp from a crash
      // Rebuild the path from the caller's base so relative bases stay
      // relative ("cache.snap.g3", not "./cache.snap.g3").
      generations.push_back({seq, base + name.substr(stem.size())});
    }
    ::closedir(dp);
  }
  std::sort(generations.begin(), generations.end(),
            [](const SnapshotGeneration& a, const SnapshotGeneration& b) {
              return a.seq > b.seq;
            });
  return generations;
}

SnapshotSaveStats save_cache_generation(const PlacementDaemon& daemon, const std::string& base,
                                        std::size_t keep) {
  if (keep == 0) keep = 1;
  const std::vector<SnapshotGeneration> existing = list_snapshot_generations(base);
  std::uint64_t newest = 0;
  for (const auto& gen : existing) newest = std::max(newest, gen.seq);

  const std::uint64_t seq = newest + 1;
  const SnapshotSaveStats stats =
      save_cache_snapshot(daemon, base + ".g" + std::to_string(seq));

  // Prune beyond `keep`, oldest first, counting the one just written.
  std::size_t kept = 1;
  for (const auto& gen : existing) {
    if (kept < keep) {
      ++kept;
      continue;
    }
    if (::unlink(gen.path.c_str()) != 0 && errno != ENOENT) {
      log_warn() << "cache snapshot prune failed: " << gen.path << " ("
                 << std::strerror(errno) << ")";
    }
  }
  return stats;
}

GenerationLoadResult load_newest_cache_generation(PlacementDaemon& daemon,
                                                  const std::string& base) {
  GenerationLoadResult result;
  for (const SnapshotGeneration& gen : list_snapshot_generations(base)) {
    try {
      result.stats = load_cache_snapshot(daemon, gen.path);
      result.loaded = true;
      result.path = gen.path;
      return result;
    } catch (const SnapshotError& e) {
      ++result.rejected;
      log_warn() << "cache snapshot generation rejected (falling back): " << e.what();
    }
  }
  return result;
}

}  // namespace streamsched
