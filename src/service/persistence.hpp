// Warm-start persistence of the placement daemon's schedule cache.
//
// On shutdown the server saves every cached placement to a text snapshot;
// on startup it loads the snapshot back, holds every entry's claims to what
// the daemon's publish gate proves, and republishes the survivors — so a
// restarted daemon serves the same schedules bit-identically (asserted
// via schedule_fingerprint) without touching the cold path; a degraded
// entry's eps_have is re-derived against the live failure set.
//
// Snapshot format (line-delimited text, like the wire protocol):
//
//   #streamsched-cache v2
//   platform <hex16 platform fingerprint>
//   entry variant=<spec> model=<spec> factor=<f> rel=<r> repair_comms=<n> event_comms=<n>
//         degraded=<0|1> eps_have=<n> eps_want=<n>        (one line)
//   dag <DagWire>
//   sched <ScheduleWire>
//   ...                                     (entry/dag/sched repeated)
//   checksum <hex16 FNV-1a over all preceding bytes>
//
// Entries are written LRU→MRU, so re-inserting them in file order
// reproduces the cache's recency ordering.
//
// Degradation survives restarts: v2 entries carry the degraded flag and
// the eps_have/eps_want deficit, and the publish gate re-derives them
// (publish_gate in service/daemon.hpp), so a warm restart can never
// launder a degraded placement into a full-guarantee one. An entry whose
// degraded flag contradicts its deficit (degraded=1 with eps_have ==
// eps_want, or degraded=0 with a deficit) rejects the whole file: that is
// format skew or tampering, not bit rot. So does an entry missing any of
// the three fields, and one whose eps_want differs from the ε its own
// variant and model resolve to on the platform and DAG.
//
// Trust model: the snapshot is a cache, never an oracle, and every claim
// a restored entry serves comes from the publish gate. Load rejects the
// whole file loudly (SnapshotError) when the header, platform
// fingerprint, or checksum doesn't match — a snapshot taken against a
// different cluster, or a truncated/corrupted file, must not seed the
// cache. Each entry that parses goes through the gate on the whole
// platform (no live failures), which compiles a fresh oracle and
// re-estimates a probabilistic entry's rel. An entry claiming more than
// the gate proves — an eps_have above its tolerance on the whole
// platform, a full-guarantee claim included, or a rel above the fresh
// estimate — is dropped alone (logged, counted in `verify_failed`): one
// bad entry should not cost the warm start of the rest. Restore then
// gates the entry against the live failure set, dropping entries it
// kills (`stale`) and re-deriving eps_have; a proven rel is kept as saved.
//
// Crash safety: snapshots are written atomically (`<path>.tmp`, fsync,
// rename, fsync of the directory), so a crash mid-write leaves at worst
// a stale `.tmp` beside the previous intact file — never a torn file
// under the live name. Long-running servers write rotated *generations*
// (`<base>.g<seq>`, monotonically increasing seq, oldest pruned beyond a
// keep bound) on a timer from the poll loop; load walks generations
// newest→oldest past corrupt/truncated files to the first intact one.
// `kill -9` at any instant therefore loses at most one snapshot interval
// of cache warmth and never the ability to warm-start.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace streamsched {

class PlacementDaemon;

/// Thrown when a snapshot cannot be saved, or when load rejects the file
/// wholesale (unreadable, bad header/version, platform-fingerprint
/// mismatch, checksum mismatch, malformed or self-contradicting entries).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SnapshotSaveStats {
  std::size_t entries = 0;  ///< placements written
  std::uint64_t bytes = 0;  ///< snapshot size on disk
};

struct SnapshotLoadStats {
  std::size_t entries = 0;        ///< entries parsed from the file
  std::size_t restored = 0;       ///< verified and republished into the cache
  std::size_t verify_failed = 0;  ///< dropped: claims more than the publish gate proves
  std::size_t stale = 0;          ///< dropped: daemon's live failure set kills them
};

/// Writes the daemon's cached placements to `path` atomically: the bytes
/// go to `<path>.tmp`, are fsync'ed, and replace `path` via rename (the
/// containing directory is fsync'ed too) — a crash mid-save never leaves
/// a torn file under `path`. Throws SnapshotError on I/O failure.
SnapshotSaveStats save_cache_snapshot(const PlacementDaemon& daemon, const std::string& path);

/// Loads `path` into the daemon's cache. Every entry is re-verified from
/// scratch — schedule rebuilt from the wire text, claims derived by the
/// publish gate on a fresh oracle and compared with the entry's (see the
/// trust model above) — before PlacementDaemon::restore republishes it. Throws
/// SnapshotError when the file as a whole is unusable (see class doc);
/// individually bad entries are dropped and counted instead.
SnapshotLoadStats load_cache_snapshot(PlacementDaemon& daemon, const std::string& path);

/// load_cache_snapshot on in-memory bytes (`label` names the source in
/// diagnostics). The file variant reads and delegates here; the fuzz
/// harness (tests/fuzz/fuzz_snapshot.cpp) calls it directly.
SnapshotLoadStats load_cache_snapshot_text(PlacementDaemon& daemon, const std::string& content,
                                           const std::string& label);

// ------------------------------------------------------------- generations --

/// One rotated snapshot file `<base>.g<seq>`.
struct SnapshotGeneration {
  std::uint64_t seq = 0;
  std::string path;
};

/// Existing generations of `base`, newest (highest seq) first. A bare
/// `base` file is not a generation: it is never listed, loaded or pruned.
[[nodiscard]] std::vector<SnapshotGeneration> list_snapshot_generations(
    const std::string& base);

/// Atomically writes the next generation `<base>.g<newest+1>` and prunes
/// the oldest generations beyond `keep` (keep >= 1). Returns the stats of
/// the written file. Throws SnapshotError on I/O failure; pruning
/// failures are logged, never thrown — a leftover old generation is
/// harmless.
SnapshotSaveStats save_cache_generation(const PlacementDaemon& daemon, const std::string& base,
                                        std::size_t keep = 4);

struct GenerationLoadResult {
  bool loaded = false;        ///< some generation loaded intact
  std::string path;           ///< the generation that loaded
  std::size_t rejected = 0;   ///< corrupt/foreign generations skipped on the way
  SnapshotLoadStats stats;    ///< of the loaded generation
};

/// Walks the generations of `base` newest→oldest, loading the first one
/// that is intact (whole-file rejections — corrupt, truncated, foreign
/// platform — are logged and skipped; that is the crash-recovery path).
/// Returns loaded=false when no generation exists or none is intact;
/// never throws SnapshotError.
GenerationLoadResult load_newest_cache_generation(PlacementDaemon& daemon,
                                                  const std::string& base);

}  // namespace streamsched
