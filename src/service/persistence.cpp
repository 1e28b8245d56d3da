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
#include <sstream>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "net/wire.hpp"
#include "schedule/survival.hpp"
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

std::uint32_t parse_u32_field(const std::string& value, const std::string& key) {
  std::size_t pos = 0;
  unsigned long parsed = 0;
  try {
    parsed = std::stoul(value, &pos);
  } catch (const std::exception&) {
    throw SnapshotError("snapshot entry field " + key + " is not a number: " + value);
  }
  if (pos != value.size() || parsed > 0xffffffffUL) {
    throw SnapshotError("snapshot entry field " + key + " is not a u32: " + value);
  }
  return static_cast<std::uint32_t>(parsed);
}

// v2 entry lines carry degraded=/eps_have=/eps_want= so a warm restart
// never launders a degraded placement into a full-guarantee one.
constexpr char kMagic[] = "#streamsched-cache v2";

/// One parsed (not yet verified) snapshot entry.
struct SnapshotEntry {
  AlgoVariant variant;
  FaultModel model = FaultModel::count(0);
  double factor = 1.0;
  double reliability = -1.0;
  std::uint32_t repair_comms = 0;
  std::uint32_t event_comms = 0;
  bool degraded = false;
  std::uint32_t eps_have = 0;
  std::uint32_t eps_want = 0;
  std::string dag_wire;
  std::string sched_wire;
};

SnapshotEntry parse_entry_line(const std::string& line) {
  SnapshotEntry entry;
  bool have_variant = false;
  bool have_model = false;
  bool have_degraded = false;
  bool have_eps_have = false;
  bool have_eps_want = false;
  std::istringstream tokens(line);
  std::string token;
  tokens >> token;  // consume "entry"
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw SnapshotError("snapshot entry token without '=': " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "variant") {
      try {
        entry.variant = AlgoVariant::parse(value);
      } catch (const std::exception& e) {
        throw SnapshotError(std::string("snapshot entry variant: ") + e.what());
      }
      have_variant = true;
    } else if (key == "model") {
      try {
        entry.model = FaultModel::parse(value);
      } catch (const std::exception& e) {
        throw SnapshotError(std::string("snapshot entry model: ") + e.what());
      }
      have_model = true;
    } else if (key == "factor") {
      entry.factor = net::parse_wire_double(value);
    } else if (key == "rel") {
      entry.reliability = net::parse_wire_double(value);
    } else if (key == "repair_comms") {
      entry.repair_comms = parse_u32_field(value, key);
    } else if (key == "event_comms") {
      entry.event_comms = parse_u32_field(value, key);
    } else if (key == "degraded") {
      if (value != "0" && value != "1") {
        throw SnapshotError("snapshot entry field degraded must be 0 or 1: " + value);
      }
      entry.degraded = value == "1";
      have_degraded = true;
    } else if (key == "eps_have") {
      entry.eps_have = parse_u32_field(value, key);
      have_eps_have = true;
    } else if (key == "eps_want") {
      entry.eps_want = parse_u32_field(value, key);
      have_eps_want = true;
    } else {
      throw SnapshotError("snapshot entry has unknown field: " + key);
    }
  }
  if (!have_variant || !have_model) {
    throw SnapshotError("snapshot entry missing variant= or model=");
  }
  // Without the deficit fields a degraded entry would restore at the full
  // guarantee, so a missing one rejects the file like a contradiction.
  if (!have_degraded || !have_eps_have || !have_eps_want) {
    throw SnapshotError("snapshot entry missing degraded=, eps_have= or eps_want=");
  }
  return entry;
}

/// Rebuilds one entry against the daemon's platform and holds its claims
/// to what the publish gate derives for it on the whole platform. Returns
/// nullptr (after logging) when the entry claims more than that.
std::shared_ptr<CachedPlacement> verify_entry(const SnapshotEntry& entry,
                                              const PlacementDaemon& daemon) {
  auto dag = std::make_shared<const Dag>(net::parse_dag_wire(entry.dag_wire));
  Schedule schedule = net::parse_schedule_wire(entry.sched_wire, *dag, daemon.platform());

  // An entry must agree with itself: eps_want is the ε its variant and
  // model resolve to on this platform and DAG (the one its admission
  // scheduled at, so a lower one would hold the placement to less than
  // its cache key asks for), and the degraded flag matches the deficit.
  // Anything else is format skew or tampering, not bit rot: reject the file.
  SchedulerOptions asked;
  asked.fault_model = entry.model;
  const CopyId eps_asked =
      entry.variant.adjusted(asked).resolved(daemon.platform(), dag->num_tasks()).eps;
  if (entry.eps_want != eps_asked || entry.degraded != (entry.eps_have < entry.eps_want)) {
    throw SnapshotError("snapshot entry contradicts itself: variant=" + entry.variant.name() +
                        " model=" + entry.model.to_string() + " asks eps=" +
                        std::to_string(eps_asked) + " but claims degraded=" +
                        (entry.degraded ? "1" : "0") + " eps_have=" +
                        std::to_string(entry.eps_have) + " eps_want=" +
                        std::to_string(entry.eps_want));
  }

  auto placement = std::make_shared<CachedPlacement>(std::move(dag), daemon.platform_ptr(),
                                                     std::move(schedule));
  placement->model = entry.model;
  placement->variant = entry.variant.name();
  placement->period_factor = entry.factor;
  placement->repair.success = true;
  placement->repair.added_comms = entry.repair_comms;
  placement->event_repair_comms = entry.event_comms;
  placement->eps_want = entry.eps_want;

  // With no live failures the gate's eps_have is the schedule's tolerance
  // on the whole platform, which no live set can raise: a claimed
  // eps_have above it (a full-guarantee claim included, as the flag check
  // above ties it to eps_want) is unproven. A probabilistic entry's rel
  // is estimated afresh (reliability is still −1) and must reproduce the
  // claim; the estimator is deterministic, and the epsilon only absorbs
  // reduction-order noise if the snapshot crossed toolchains.
  BatchScratch scratch;
  if (!publish_gate(*placement, ProcSet(daemon.platform().num_procs()), scratch) ||
      entry.eps_have > placement->eps_have ||
      entry.reliability > placement->reliability + 1e-9) {
    log_warn() << "snapshot entry dropped: variant=" << entry.variant.name()
               << " model=" << entry.model.to_string() << " claims eps_have=" << entry.eps_have
               << " rel=" << entry.reliability << " but proves eps_have=" << placement->eps_have
               << " rel=" << placement->reliability;
    return nullptr;
  }
  // The proven claim stands, so a restart serves the rel it saved;
  // restore() renders it when it sends the entry through the gate again.
  placement->reliability = entry.reliability;
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
            " factor=" + net::wire_double(placement->period_factor) +
            " rel=" + net::wire_double(placement->reliability) +
            " repair_comms=" + std::to_string(placement->repair.added_comms) +
            " event_comms=" + std::to_string(placement->event_repair_comms) +
            " degraded=" + (placement->degraded ? "1" : "0") +
            " eps_have=" + std::to_string(placement->eps_have) +
            " eps_want=" + std::to_string(placement->eps_want) + '\n';
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
    SnapshotEntry entry = parse_entry_line(lines[i].second);
    entry.dag_wire = lines[i + 1].second.substr(4);
    entry.sched_wire = lines[i + 2].second.substr(6);
    i += 3;
    ++stats.entries;

    std::shared_ptr<CachedPlacement> placement;
    try {
      placement = verify_entry(entry, daemon);
    } catch (const net::WireError& e) {
      // Framing is intact (checksum passed) but the payload doesn't parse:
      // a format-version skew, not bit rot. Reject the file, not the entry.
      throw SnapshotError(std::string("cache snapshot entry does not parse: ") + e.what());
    }
    if (placement == nullptr) {
      ++stats.verify_failed;
      continue;
    }
    if (daemon.restore(placement)) {
      ++stats.restored;
    } else {
      ++stats.stale;
      log_warn() << "snapshot entry dropped: variant=" << entry.variant.name()
                 << " model=" << entry.model.to_string()
                 << " does not survive the daemon's live failure set";
    }
  }

  log_info() << "cache snapshot loaded: " << path << " entries=" << stats.entries
             << " restored=" << stats.restored << " verify_failed=" << stats.verify_failed
             << " stale=" << stats.stale;
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
