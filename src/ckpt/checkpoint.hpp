// Generation-numbered checkpoint store + save-cadence policy.
//
// Each rank owns its own files, one set per job:
// `<dir>/<scope>-<key>-r<rank>-g<gen>.ckpt`, where `scope` separates
// coexisting save points ("summa" batch boundaries vs "mcl" iteration
// boundaries), `key` is the 16-hex XXH64 of the job id, and `gen` increases
// by one per save of that job. Listing, generation numbers and pruning are
// per job, so jobs sharing a directory never touch each other's files.
// Writes are atomic — bytes stream to `<final><kTmpSuffix>` and are renamed
// over the final path only after a successful flush.
//
// A save may be a delta: it names its parent generation (by number and
// checksum) and holds only the sections that changed since; the rest are
// inherited. A generation is valid only if it and every generation it
// inherits from verify (checksum intact, parent links strictly older and
// matching) and carry the job id, so a torn or corrupted generation
// invalidates exactly the generations built on it, and load_all falls back
// to the newest one that still resolves. The newest two generations and
// everything they inherit from are retained; the rest are pruned.
//
// A snapshot is only resumable for the job that wrote it: save() stamps a
// caller-supplied job id (shapes, nnz, parameters, nesting tag) into the
// reserved "__job" section and load_all() filters on it.
//
// SPMD contract: whether checkpointing is enabled (and its cadence) must be
// uniform across ranks — consumers run resume-consensus collectives only
// when a Checkpointer is present.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "obs/recorder.hpp"

namespace casp::ckpt {

/// Suffix for in-flight checkpoint writes. The `ckpt-atomic-write` lint
/// rule keys on this: every file-open in src/ckpt/ must target a
/// `kTmpSuffix` path, never a final checkpoint path.
inline constexpr const char* kTmpSuffix = ".tmp";

/// Reserved sections the store writes: the job-identity stamp and, in a
/// delta generation, the ParentLink record.
inline constexpr const char* kJobSection = "__job";
inline constexpr const char* kParentSection = "__parent";

/// save()'s `parent` for a self-contained generation.
inline constexpr std::int64_t kNoParent = -1;

/// A delta generation's "__parent" record: the generation it inherits from
/// and that file's trailing checksum.
struct ParentLink {
  std::int64_t generation;
  std::uint64_t checksum;
};

/// "<scope>-<16-hex XXH64 of job_id>": the start of the file names of one
/// job's generations (followed by "-r<rank>-g<gen>.ckpt").
std::string job_file_stem(const std::string& scope, const std::string& job_id);

struct LoadedSnapshot {
  Snapshot snap;  ///< resolved: inherited sections included
  std::int64_t generation = -1;
};

class Checkpointer {
 public:
  /// Default-constructed checkpointer is disabled: due() is always false
  /// and save()/load_all() must not be called.
  Checkpointer() = default;
  Checkpointer(std::string dir, int rank, std::uint64_t every = 1,
               obs::Recorder* recorder = nullptr);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  /// True when a save is due after `completed` units of progress
  /// (batches emitted, iterations finished).
  bool due(std::uint64_t completed) const {
    return enabled() && completed > 0 && completed % every_ == 0;
  }

  /// Stamp `job_id` and atomically write `snap` as the next generation of
  /// (`scope`, `job_id`), streamed straight from its sections. With a
  /// `parent`, the generation is a delta over it: `parent` must be a
  /// generation this Checkpointer saved or loaded for the same job.
  /// Returns the new generation. Throws CkptError on I/O failure.
  std::int64_t save(const std::string& scope, const std::string& job_id,
                    Snapshot snap, std::int64_t parent = kNoParent);

  /// Every valid generation of (`scope`, `job_id`), resolved against its
  /// parents, newest first. Torn, corrupted, or mismatched files — and
  /// every generation inheriting from one — are skipped, which is exactly
  /// the generation-fallback path.
  std::vector<LoadedSnapshot> load_all(const std::string& scope,
                                       const std::string& job_id);

  /// Deletes every generation of (`scope`, `job_id`) this rank holds.
  void discard(const std::string& scope, const std::string& job_id);

  /// The file of generation `gen` of (`scope`, `job_id`) for this rank.
  std::string generation_path(const std::string& scope,
                              const std::string& job_id,
                              std::int64_t gen) const;

  /// Record that this rank resumed from `generation` (counters
  /// `ckpt.resumes` / `ckpt.resumed_generation`).
  void note_resume(std::int64_t generation);

 private:
  /// What the store knows of one generation file.
  struct Generation {
    bool read = false;   ///< inspected (saved here, or read and verified)
    bool valid = false;  ///< checksum and job id held (not its chain)
    std::optional<ParentLink> parent;
    std::uint64_t checksum = 0;
  };
  /// One job's generations of one scope, listed from disk once.
  struct Store {
    std::string prefix;  ///< "<stem>-r<rank>-g"
    std::map<std::int64_t, Generation> gens;
  };

  Store& store(const std::string& scope, const std::string& job_id);
  std::optional<Snapshot> inspect(Store& s, std::int64_t gen,
                                  const std::string& job_id);
  void prune(Store& s, std::int64_t newest, const std::string& job_id);

  std::string dir_;
  int rank_ = 0;
  std::uint64_t every_ = 1;
  obs::Recorder* recorder_ = nullptr;
  bool dir_made_ = false;
  std::map<std::string, Store> stores_;
};

}  // namespace casp::ckpt
