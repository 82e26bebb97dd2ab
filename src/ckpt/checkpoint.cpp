#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <system_error>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace casp::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCkptExtension = ".ckpt";

/// Stream `snap` atomically: everything goes to the kTmpSuffix sibling and
/// only a successful flush promotes it (rename) over `final_path`. A crash
/// mid-write leaves at worst a stale tmp file, never a torn final file.
/// Returns the checksum written.
std::uint64_t atomic_write_file(const fs::path& final_path,
                                const Snapshot& snap) {
  const fs::path tmp = final_path.string() + kTmpSuffix;
  std::uint64_t checksum = 0;
  {
    std::ofstream out(final_path.string() + kTmpSuffix,
                      std::ios::binary | std::ios::trunc);
    if (!out)
      throw CkptError("cannot open checkpoint tmp file " + tmp.string());
    checksum = snap.write(out);
    out.flush();
    if (!out.good())
      throw CkptError("short write to checkpoint tmp file " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec)
    throw CkptError("cannot promote checkpoint " + final_path.string() +
                    ": " + ec.message());
  return checksum;
}

std::vector<std::byte> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw CkptError("cannot open checkpoint " + path.string());
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  static_assert(std::is_trivially_copyable_v<std::byte> &&
                sizeof(char) == sizeof(std::byte));
  if (!bytes.empty())
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good())
    throw CkptError("short read from checkpoint " + path.string());
  return bytes;
}

fs::path gen_file(const std::string& dir, const std::string& prefix,
                  std::int64_t gen) {
  return fs::path(dir) / (prefix + std::to_string(gen) + kCkptExtension);
}

std::string rank_prefix(const std::string& scope, const std::string& job_id,
                        int rank) {
  return job_file_stem(scope, job_id) + "-r" + std::to_string(rank) + "-g";
}

/// Generation numbers of the files named `<prefix><gen>.ckpt` in `dir`.
std::vector<std::int64_t> list_generations(const fs::path& dir,
                                           const std::string& prefix) {
  std::vector<std::int64_t> found;
  const std::size_t ext = std::strlen(kCkptExtension);
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() + ext) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t ext_at = name.size() - ext;
    if (name.compare(ext_at, std::string::npos, kCkptExtension) != 0) continue;
    std::int64_t gen = -1;
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + ext_at;
    auto [ptr, parse_ec] = std::from_chars(first, last, gen);
    if (parse_ec != std::errc{} || ptr != last || gen < 0) continue;
    found.push_back(gen);
  }
  return found;
}

}  // namespace

std::string job_file_stem(const std::string& scope,
                          const std::string& job_id) {
  char key[17];
  std::snprintf(key, sizeof(key), "%016" PRIx64,
                xxh64(job_id.data(), job_id.size()));
  return scope + "-" + key;
}

Checkpointer::Checkpointer(std::string dir, int rank, std::uint64_t every,
                           obs::Recorder* recorder)
    : dir_(std::move(dir)),
      rank_(rank),
      every_(every == 0 ? 1 : every),
      recorder_(recorder) {
  CASP_CHECK_MSG(!dir_.empty(), "checkpoint directory must be non-empty");
}

std::string Checkpointer::generation_path(const std::string& scope,
                                          const std::string& job_id,
                                          std::int64_t gen) const {
  return gen_file(dir_, rank_prefix(scope, job_id, rank_), gen).string();
}

Checkpointer::Store& Checkpointer::store(const std::string& scope,
                                         const std::string& job_id) {
  std::string prefix = rank_prefix(scope, job_id, rank_);
  auto [it, fresh] = stores_.try_emplace(prefix);
  if (fresh) {
    for (const std::int64_t gen : list_generations(dir_, prefix))
      it->second.gens[gen] = Generation{};
    it->second.prefix = std::move(prefix);
  }
  return it->second;
}

std::optional<Snapshot> Checkpointer::inspect(Store& s, std::int64_t gen,
                                              const std::string& job_id) {
  Generation& g = s.gens[gen];
  g = Generation{};
  g.read = true;
  try {
    std::vector<std::byte> bytes = read_file(gen_file(dir_, s.prefix, gen));
    const std::uint64_t checksum = Snapshot::checksum_of(bytes);
    Snapshot snap = Snapshot::deserialize(std::move(bytes));
    if (snap.string(kJobSection) != job_id) return std::nullopt;
    if (snap.has(kParentSection)) {
      const auto links = snap.array<ParentLink>(kParentSection);
      if (links.size() != 1) return std::nullopt;
      g.parent = links.front();
    }
    g.valid = true;
    g.checksum = checksum;
    return snap;
  } catch (const CkptError&) {
    // Torn, corrupted or unreadable: the fallback path, not an error.
    return std::nullopt;
  }
}

std::int64_t Checkpointer::save(const std::string& scope,
                                const std::string& job_id, Snapshot snap,
                                std::int64_t parent) {
  CASP_CHECK_MSG(enabled(), "save() on a disabled Checkpointer");
  std::optional<obs::Span> span;
  if (recorder_ != nullptr) span.emplace(*recorder_, "ckpt.save");
  Store& s = store(scope, job_id);
  const std::int64_t gen = s.gens.empty() ? 1 : s.gens.rbegin()->first + 1;

  std::optional<ParentLink> link;
  if (parent != kNoParent) {
    const auto it = s.gens.find(parent);
    CASP_CHECK_MSG(it != s.gens.end() && it->second.valid,
                   "checkpoint parent generation " << parent
                                                   << " is not a valid "
                                                      "generation of this job");
    link = ParentLink{parent, it->second.checksum};
    snap.set_array(kParentSection, std::vector<ParentLink>{*link});
  }
  snap.set_string(kJobSection, job_id);
  if (!dir_made_) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    dir_made_ = true;
  }
  const std::uint64_t checksum =
      atomic_write_file(gen_file(dir_, s.prefix, gen), snap);
  s.gens[gen] = Generation{true, true, link, checksum};
  prune(s, gen, job_id);
  if (recorder_ != nullptr) {
    recorder_->add_counter("ckpt.saves", 1);
    recorder_->add_counter("ckpt.bytes",
                           static_cast<std::int64_t>(snap.encoded_size()));
    recorder_->set_counter("ckpt.generation", gen);
  }
  return gen;
}

void Checkpointer::prune(Store& s, std::int64_t newest,
                         const std::string& job_id) {
  // Live: the new generation, the one before it (the fallback should the
  // new one be damaged later), and everything either inherits from.
  std::set<std::int64_t> live;
  const auto keep_chain = [&](std::int64_t gen) {
    while (live.insert(gen).second) {
      if (!s.gens.at(gen).read) (void)inspect(s, gen, job_id);
      const Generation& g = s.gens.at(gen);
      if (!g.valid || !g.parent || g.parent->generation >= gen ||
          s.gens.count(g.parent->generation) == 0)
        return;
      gen = g.parent->generation;
    }
  };
  keep_chain(newest);
  const auto at = s.gens.find(newest);
  if (at != s.gens.begin()) keep_chain(std::prev(at)->first);
  std::error_code ec;
  for (auto it = s.gens.begin(); it != s.gens.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    fs::remove(gen_file(dir_, s.prefix, it->first), ec);
    it = s.gens.erase(it);
  }
}

std::vector<LoadedSnapshot> Checkpointer::load_all(const std::string& scope,
                                                   const std::string& job_id) {
  CASP_CHECK_MSG(enabled(), "load_all() on a disabled Checkpointer");
  Store& s = store(scope, job_id);
  // Oldest first, so a parent (always strictly older) is resolved before
  // the generations inheriting from it; a link to itself, to a newer or
  // missing generation, or to one whose checksum differs never resolves.
  std::map<std::int64_t, Snapshot> resolved;
  for (const auto& [gen, info] : s.gens) {
    std::optional<Snapshot> snap = inspect(s, gen, job_id);
    if (!snap) continue;
    if (info.parent) {
      const ParentLink& link = *info.parent;
      const auto parent = resolved.find(link.generation);
      if (link.generation >= gen || parent == resolved.end() ||
          s.gens.at(link.generation).checksum != link.checksum)
        continue;
      snap->inherit(parent->second);
    }
    resolved.emplace(gen, std::move(*snap));
  }
  std::vector<LoadedSnapshot> out;
  out.reserve(resolved.size());
  for (auto it = resolved.rbegin(); it != resolved.rend(); ++it)
    out.push_back(LoadedSnapshot{std::move(it->second), it->first});
  return out;
}

void Checkpointer::discard(const std::string& scope,
                           const std::string& job_id) {
  CASP_CHECK_MSG(enabled(), "discard() on a disabled Checkpointer");
  Store& s = store(scope, job_id);
  std::error_code ec;
  for (const auto& [gen, info] : s.gens)
    fs::remove(gen_file(dir_, s.prefix, gen), ec);
  s.gens.clear();
}

void Checkpointer::note_resume(std::int64_t generation) {
  if (recorder_ == nullptr) return;
  recorder_->add_counter("ckpt.resumes", 1);
  std::int64_t prev = 0;
  auto it = recorder_->counters().find("ckpt.resumed_generation");
  if (it != recorder_->counters().end()) prev = it->second;
  recorder_->set_counter("ckpt.resumed_generation",
                         std::max(prev, generation));
}

}  // namespace casp::ckpt
