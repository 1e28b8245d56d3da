// Warm-start persistence of the placement daemon's schedule cache.
//
// On shutdown the server saves every cached placement to a text snapshot;
// on startup it loads the snapshot back and republishes every entry
// through the daemon's publish gate, so a restarted daemon serves the
// same schedules bit-identically (asserted via schedule_fingerprint)
// without touching the cold path.
//
// Snapshot format (line-delimited text, like the wire protocol):
//
//   #streamsched-cache v3
//   platform <hex16 platform fingerprint>
//   entry variant=<spec> model=<spec> factor=<f>
//   dag <DagWire>
//   sched <ScheduleWire>
//   ...                                     (entry/dag/sched repeated)
//   checksum <hex16 FNV-1a over all preceding bytes>
//
// Entries are written LRU→MRU, so re-inserting them in file order
// reproduces the cache's recency ordering.
//
// Trust model: the snapshot is a cache, never an oracle. It stores no
// claim, only what the publish gate cannot derive from the schedule: the
// variant and model an entry is cached under and its escalation factor.
// The loader derives eps_want from the variant and model (the ε its
// admission scheduled at) and repair_comms from the schedule's
// repair-flagged channels; PlacementDaemon::restore's one gate pass,
// against the live failure set, derives the rest — eps_have, degraded,
// rel, fp, stages and latency. An edited file can therefore launder
// nothing: it states nothing the gate does not re-derive, and an entry
// filed under a weaker model is held to that model's key alone. Load
// rejects the whole file loudly (SnapshotError) when the header (any
// version but v3), platform fingerprint, checksum or an entry's fields
// don't parse — a snapshot taken against a different cluster, or a
// truncated/corrupted file, must not seed the cache. An entry the live
// failure set kills is dropped alone (logged, counted in `stale`).
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
/// mismatch, checksum mismatch, malformed entries).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SnapshotSaveStats {
  std::size_t entries = 0;  ///< placements written
  std::uint64_t bytes = 0;  ///< snapshot size on disk
};

struct SnapshotLoadStats {
  std::size_t entries = 0;   ///< entries parsed from the file
  std::size_t restored = 0;  ///< passed the publish gate and republished into the cache
  std::size_t stale = 0;     ///< dropped: daemon's live failure set kills them
};

/// Writes the daemon's cached placements to `path` atomically: the bytes
/// go to `<path>.tmp`, are fsync'ed, and replace `path` via rename (the
/// containing directory is fsync'ed too) — a crash mid-save never leaves
/// a torn file under `path`. Throws SnapshotError on I/O failure.
SnapshotSaveStats save_cache_snapshot(const PlacementDaemon& daemon, const std::string& path);

/// Loads `path` into the daemon's cache: every entry's schedule is rebuilt
/// from the wire text and PlacementDaemon::restore republishes it, its
/// claims derived by the publish gate (see the trust model above). Throws
/// SnapshotError when the file as a whole is unusable (see class doc);
/// entries the live failure set kills are dropped and counted instead.
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
