#ifdef CASP_VMPI_SCHED

#include "vmpi/hb.hpp"

#include <algorithm>
#include <sstream>

namespace casp::vmpi::hb {

bool clock_leq(const VectorClock& a, const VectorClock& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

void clock_join(VectorClock& a, const VectorClock& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(a[i], b[i]);
}

Analyzer::Analyzer(int size) : size_(size) {
  clocks_.assign(static_cast<std::size_t>(size),
                 VectorClock(static_cast<std::size_t>(size), 0));
}

void Analyzer::bump(int rank) {
  ++clocks_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(rank)];
}

Analyzer::BufferState& Analyzer::buffer_state(int rank, const void* buffer,
                                              bool creating) {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) {
    BufferState st;
    if (creating) {
      st.owners.insert(rank);
    } else {
      // First sighting through a non-create event: the buffer predates the
      // scheduled run or was made on the launcher thread. Ownership checks
      // would misfire, so mark it foreign.
      st.foreign = true;
    }
    it = buffers_.emplace(buffer, std::move(st)).first;
  }
  return it->second;
}

void Analyzer::add_finding(const std::string& kind, int rank,
                           const std::string& detail) {
  if (findings_.size() >= 64) return;  // bound a pathological program
  const std::string key = kind + "|" + detail;
  if (!finding_keys_.insert(key).second) return;
  findings_.push_back({kind, rank, detail});
}

std::uint64_t Analyzer::on_send(int rank, std::uint64_t context,
                                int dest_world, int tag,
                                std::span<const void* const> buffers,
                                std::size_t bytes) {
  bump(rank);
  const VectorClock& clock = clocks_[static_cast<std::size_t>(rank)];
  const std::uint64_t id = next_msg_id_++;
  MessageRecord rec;
  rec.clock = clock;
  rec.buffers.assign(buffers.begin(), buffers.end());
  rec.context = context;
  rec.dest_world = dest_world;
  rec.src_world = rank;
  rec.tag = tag;
  messages_.emplace(id, std::move(rec));
  ++triples_[{context, rank, dest_world, tag}].sent;
  for (const void* buffer : buffers) {
    if (buffer == nullptr) continue;
    BufferState& st = buffer_state(rank, buffer, /*creating=*/false);
    st.transported = true;
    st.last_event[rank] = clock;
  }
  if (tag >= 0) {
    auto& pending = pending_user_sends_[{context, dest_world, tag}];
    for (const PendingSend& p : pending) {
      if (p.src_world == rank) continue;
      if (!clock_leq(p.clock, clock) && !clock_leq(clock, p.clock)) {
        std::ostringstream os;
        os << "racing sends to (dest " << dest_world << ", tag " << tag
           << "): rank " << rank << " and rank " << p.src_world
           << " send concurrently with no happens-before order — receive "
              "matching disambiguates only by source, so arrival order is "
              "schedule-dependent (" << bytes << " bytes in flight)";
        add_finding("racing_send", rank, os.str());
      }
    }
    pending.push_back({rank, id, clock});
  }
  return id;
}

void Analyzer::on_recv(int rank, std::uint64_t msg_id) {
  auto it = messages_.find(msg_id);
  if (it == messages_.end()) return;
  const MessageRecord& rec = it->second;
  clock_join(clocks_[static_cast<std::size_t>(rank)], rec.clock);
  bump(rank);
  ++triples_[{rec.context, rec.src_world, rec.dest_world, rec.tag}].consumed;
  for (const void* buffer : rec.buffers) {
    if (buffer == nullptr) continue;
    BufferState& st = buffer_state(rank, buffer, /*creating=*/false);
    st.owners.insert(rank);
    st.last_event[rank] = clocks_[static_cast<std::size_t>(rank)];
  }
  if (rec.tag >= 0) {
    auto pit = pending_user_sends_.find({rec.context, rec.dest_world,
                                         rec.tag});
    if (pit != pending_user_sends_.end()) {
      auto& vec = pit->second;
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [msg_id](const PendingSend& p) {
                                 return p.msg_id == msg_id;
                               }),
                vec.end());
    }
  }
  messages_.erase(it);
}

void Analyzer::on_event(int rank, schedhook::Event event, const void* object,
                        long value) {
  using schedhook::Event;
  const std::size_t r = static_cast<std::size_t>(rank);
  bump(rank);
  const VectorClock& clock = clocks_[r];

  if (event == Event::kAllocCommit) return;  // schedule point only

  BufferState& st =
      buffer_state(rank, object, event == Event::kBufferCreate);

  // A rank reading or acquiring a buffer another rank has already reclaimed
  // for mutation — without a happens-before edge from the reclaim — is a
  // use-after-release from the reader's point of view.
  auto check_reclaim_read = [&]() {
    if (st.reclaimed && st.reclaimer != rank &&
        !clock_leq(st.reclaim_clock, clock)) {
      std::ostringstream os;
      os << "rank " << rank << " reads a payload buffer rank "
         << st.reclaimer
         << " reclaimed for mutation with no happens-before edge between "
            "the reclaim and the read";
      add_finding("use_after_release", rank, os.str());
    }
  };
  auto check_ownership = [&](const char* verb) {
    if (!st.foreign && st.owners.count(rank) == 0) {
      std::ostringstream os;
      os << "rank " << rank << " " << verb
         << " a payload buffer it never received through the transport "
            "(zero-copy data crossed ranks outside a message edge)";
      add_finding("payload_ownership", rank, os.str());
    }
  };

  switch (event) {
    case Event::kBufferCreate:
      st.live = value;
      st.last_event[rank] = clock;
      break;
    case Event::kHandleAcquire:
      st.live = value;
      check_ownership("acquired a handle on");
      check_reclaim_read();
      st.last_event[rank] = clock;
      break;
    case Event::kHandleRelease:
      st.live = value;
      if (st.has_release) {
        clock_join(st.release_clock, clock);
      } else {
        st.release_clock = clock;
        st.has_release = true;
      }
      st.last_event[rank] = clock;
      if (st.live <= 0) buffers_.erase(object);
      break;
    case Event::kAccess:
      check_ownership("read bytes of");
      check_reclaim_read();
      st.last_event[rank] = clock;
      break;
    case Event::kObserveSoleAcquire:
      // Observing a handle count of 1 with acquire ordering synchronizes
      // with every release that produced it: join their clocks.
      if (value == 1 && st.has_release)
        clock_join(clocks_[r], st.release_clock);
      st.last_event[rank] = clocks_[r];
      break;
    case Event::kObserveSoleRelaxed:
      // The known-bug variant synchronizes with nothing.
      st.last_event[rank] = clock;
      break;
    case Event::kSteal: {
      for (const auto& [other, vc] : st.last_event) {
        if (other == rank) continue;
        if (!clock_leq(vc, clock)) {
          std::ostringstream os;
          os << "rank " << rank
             << " stole a shared payload allocation (release_or_copy "
                "sole-owner move) while rank " << other
             << "'s last use is not happens-before ordered against the "
                "steal — the sole-owner check does not synchronize with "
                "that rank's release";
          add_finding("sole_owner_race", rank, os.str());
        }
      }
      st.reclaimed = true;
      st.reclaim_clock = clock;
      st.reclaimer = rank;
      st.last_event[rank] = clock;
      break;
    }
    case Event::kMutate: {
      for (const auto& [other, vc] : st.last_event) {
        if (other == rank) continue;
        if (!clock_leq(vc, clock)) {
          std::ostringstream os;
          if (st.transported) {
            os << "rank " << rank
               << " mutated payload bytes after handing the buffer to the "
                  "transport; rank " << other
               << "'s use of the shared allocation is concurrent with the "
                  "mutation (mutation-after-send)";
            add_finding("mutation_after_send", rank, os.str());
          } else {
            os << "rank " << rank
               << " mutated payload bytes while rank " << other
               << " concurrently holds the shared allocation";
            add_finding("mutation_while_shared", rank, os.str());
          }
        }
      }
      if (st.transported && st.live > 1) {
        std::ostringstream os;
        os << "rank " << rank
           << " mutated payload bytes while " << (st.live - 1)
           << " other live handle(s) share the sent allocation "
              "(mutation-after-send)";
        add_finding("mutation_after_send", rank, os.str());
      }
      st.reclaimed = true;
      st.reclaim_clock = clock;
      st.reclaimer = rank;
      st.last_event[rank] = clock;
      break;
    }
    case Event::kAllocCommit:
      break;
  }
}

std::string Analyzer::describe_wait(std::uint64_t context, int src_world,
                                    int dest_world, int tag) const {
  const auto it = triples_.find({context, src_world, dest_world, tag});
  if (it == triples_.end() || it->second.sent == 0)
    return "no matching message was ever sent";
  const TripleStats& t = it->second;
  if (t.consumed >= t.sent) {
    std::ostringstream os;
    os << "all " << t.sent
       << " matching message(s) were already consumed by earlier receives "
          "— lost wakeup";
    return os.str();
  }
  std::ostringstream os;
  os << t.sent - t.consumed << " matching message(s) still queued";
  return os.str();
}

}  // namespace casp::vmpi::hb

#endif  // CASP_VMPI_SCHED
