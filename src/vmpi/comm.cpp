#include "vmpi/comm.hpp"

#include <algorithm>
#include <sstream>

#include "common/hash.hpp"
#include "vmpi/sched.hpp"

namespace casp::vmpi {

namespace {

#ifdef CASP_VMPI_CHECK
/// The frame checksum of a message: head, then each part in order.
std::uint64_t frame_checksum(const detail::Message& msg) {
  Xxh64 hash;
  hash.update(msg.payload.data(), msg.payload.size());
  for (const Payload& part : msg.parts) hash.update(part.data(), part.size());
  return hash.digest();
}
#endif

}  // namespace

namespace detail {

void Mailbox::push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(std::uint64_t context, int src_world, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (aborted_) throw Aborted();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->context == context && it->src_world == src_world &&
          it->tag == tag) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    cv_.wait(lock);
  }
}

bool Mailbox::has_match(std::uint64_t context, int src_world, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Message& m : queue_) {
    if (m.context == context && m.src_world == src_world && m.tag == tag)
      return true;
  }
  return false;
}

bool Mailbox::try_pop(std::uint64_t context, int src_world, int tag,
                      Message& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (aborted_) throw Aborted();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->context == context && it->src_world == src_world &&
        it->tag == tag) {
      out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

void Mailbox::abort_all() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

#ifdef CASP_VMPI_CHECK
std::vector<LeftoverCollective> Mailbox::stamped_leftovers() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LeftoverCollective> out;
  for (const Message& m : queue_) {
    if (m.stamp.op == CollectiveOp::kNone) continue;
    LeftoverCollective l;
    l.src_world = m.src_world;
    l.tag = m.tag;
    l.stamp = m.stamp;
    out.push_back(l);
  }
  return out;
}

std::vector<LeftoverMessage> Mailbox::user_tag_leftovers() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LeftoverMessage> out;
  for (const Message& m : queue_) {
    // Internal (negative) tags belong to the collective sweep; explicit
    // fire-and-forget sends are exempt by contract.
    if (m.tag < 0 || m.fire_and_forget) continue;
    LeftoverMessage l;
    l.src_world = m.src_world;
    l.tag = m.tag;
    l.bytes = m.bytes();
    out.push_back(l);
  }
  return out;
}
#endif

void World::abort_all() {
#ifdef CASP_VMPI_SCHED
  // Release the scheduler first: rank threads parked on the token must be
  // free-running before mailbox aborts can reach them.
  if (sched != nullptr) sched->scheduler().abort_all();
#endif
  for (Mailbox& m : mailboxes) m.abort_all();
}

}  // namespace detail

#ifdef CASP_VMPI_CHECK
CollectiveScope::CollectiveScope(Comm& comm, CollectiveOp op, int root,
                                 std::uint64_t payload)
    : comm_(comm), saved_(comm.current_collective_) {
  CollectiveStamp stamp;
  stamp.op = op;
  stamp.seq = ++comm.collective_seq_;
  stamp.root = root;
  stamp.payload = payload;
  comm.current_collective_ = stamp;
  const int my_world =
      comm.members_[static_cast<std::size_t>(comm.rank_)];
  detail::RankStatus& st =
      comm.world_->status[static_cast<std::size_t>(my_world)];
  std::lock_guard<std::mutex> lock(st.mutex);
  saved_context_ = st.current_context;
  st.current = stamp;
  st.current_context = comm.context_;
  st.history[st.history_count % st.history.size()] = stamp;
  ++st.history_count;
}

CollectiveScope::~CollectiveScope() {
  comm_.current_collective_ = saved_;
  const int my_world =
      comm_.members_[static_cast<std::size_t>(comm_.rank_)];
  detail::RankStatus& st =
      comm_.world_->status[static_cast<std::size_t>(my_world)];
  std::lock_guard<std::mutex> lock(st.mutex);
  st.current = saved_;
  st.current_context = saved_context_;
}

void Comm::verify_collective_stamp(const detail::Message& msg, int src) {
  verify_stamp_against(msg, src, current_collective_);
}

void Comm::verify_stamp_against(const detail::Message& msg, int src,
                                const CollectiveStamp& expected) {
  const CollectiveStamp& mine = expected;
  const CollectiveStamp& theirs = msg.stamp;
  // Plain point-to-point traffic on either side is outside the checker's
  // jurisdiction (tags already isolate it from collective traffic).
  if (mine.op == CollectiveOp::kNone || theirs.op == CollectiveOp::kNone)
    return;
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  const int src_world = members_[static_cast<std::size_t>(src)];
  if (theirs.op != mine.op || theirs.seq != mine.seq ||
      theirs.root != mine.root) {
    std::ostringstream os;
    os << "vmpi collective mismatch on communicator 0x" << std::hex
       << context_ << std::dec << ": rank " << my_world << " executing "
       << describe_stamp(mine) << " received a message rank " << src_world
       << " sent inside " << describe_stamp(theirs)
       << " — ranks disagree on collective order";
    throw CollectiveMismatch(os.str());
  }
  if (mine.op == CollectiveOp::kReduce && theirs.payload != mine.payload) {
    std::ostringstream os;
    os << "vmpi collective mismatch: allreduce length divergence in "
       << describe_stamp(mine) << " — rank " << my_world << " contributed "
       << mine.payload << " bytes but rank " << src_world << " contributed "
       << theirs.payload << " bytes";
    throw CollectiveMismatch(os.str());
  }
}
#endif

Comm::Comm(std::shared_ptr<detail::World> world, int world_rank, int size)
    : world_(std::move(world)),
      context_(0),
      rank_(world_rank),
      size_(size),
      recorder_(std::make_shared<obs::Recorder>()) {
  members_.resize(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) members_[static_cast<std::size_t>(r)] = r;
  // All ranks share the World's stopwatch so timeline timestamps line up.
  recorder_->set_epoch(world_->epoch);
}

Comm::Comm(std::shared_ptr<detail::World> world, std::uint64_t context,
           std::vector<int> members, int my_pos)
    : world_(std::move(world)),
      context_(context),
      members_(std::move(members)),
      rank_(my_pos),
      size_(static_cast<int>(members_.size())) {}

void Comm::post_message(int dest, int tag, Payload payload,
                        bool fire_and_forget, std::vector<Payload> parts) {
  CASP_CHECK_MSG(dest >= 0 && dest < size_, "send to invalid rank " << dest);
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  const int dest_world = members_[static_cast<std::size_t>(dest)];
  detail::Message msg;
  msg.context = context_;
  msg.src_world = my_world;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.parts = std::move(parts);
  msg.fire_and_forget = fire_and_forget;
  const auto bytes = static_cast<Bytes>(msg.bytes());
  detail::FaultState* faults = world_->faults.get();
  std::uint64_t op = 0;
  if (faults != nullptr) op = faults->enter_op(my_world, *recorder_);
  // Transient-fault retry loop. Every attempt — including ones the fault
  // plan fails — charges the full logical bytes: a failed attempt already
  // put its bytes on the wire, so Table II accounting must count the
  // retransmission too. The no-fault path runs the loop body exactly once
  // and charges exactly once, as before. The receiver's world rank feeds
  // the per-phase rank×rank traffic matrix. A gather-list message is one
  // record of its total bytes, however many parts it carries.
  for (int attempt = 0;; ++attempt) {
    recorder_->traffic().record_send(bytes, dest_world);
    if (faults == nullptr) break;
    try {
      faults->check_send(my_world, op, attempt, *recorder_);
      // Seeded byte-flip model: the link-layer frame checksum catches the
      // corrupted attempt before delivery, so it retries exactly like a
      // dropped packet (and exhausts the same retry budget).
      faults->check_corrupt(my_world, op, attempt, *recorder_);
      break;
    } catch (const TransientCommError& e) {
      if (attempt + 1 >= faults->plan().retry.max_attempts) {
        std::ostringstream os;
        os << "send retry budget exhausted after "
           << faults->plan().retry.max_attempts << " attempts (rank "
           << my_world << " -> rank " << dest_world << ", tag " << tag
           << "): " << e.what();
        throw RetryExhausted(os.str());
      }
      recorder_->add_counter("vmpi.retries", 1);
      faults->backoff(attempt);
    }
  }
#ifdef CASP_VMPI_CHECK
  msg.stamp = current_collective_;
  if (faults != nullptr) {
    // End-to-end integrity cover for fault runs only: fault-free runs (the
    // perf-gated path) never pay for the hash.
    msg.checksum = frame_checksum(msg);
    msg.has_checksum = true;
  }
#endif
#ifdef CASP_VMPI_SCHED
  SchedState* sched = world_->sched.get();
  if (sched != nullptr) {
    // Decision point before the delivery becomes visible, then a message
    // edge for the happens-before analyzer (the id travels in the header).
    sched->scheduler().yield(my_world);
    if (!sched->scheduler().aborted()) {
      // Every carried buffer, so the receiver owns each part's allocation
      // (a sparse reply's parts all alias the root's packed block).
      std::vector<const void*> buffers;
      buffers.reserve(1 + msg.parts.size());
      buffers.push_back(msg.payload.buffer_id());
      for (const Payload& part : msg.parts)
        buffers.push_back(part.buffer_id());
      msg.hb_id = sched->analyzer().on_send(my_world, context_, dest_world,
                                            tag, buffers, msg.bytes());
    }
  }
#endif
  world_->mailboxes[static_cast<std::size_t>(members_[static_cast<std::size_t>(dest)])]
      .push(std::move(msg));
  world_->progress.fetch_add(1, std::memory_order_relaxed);
#ifdef CASP_VMPI_SCHED
  if (sched != nullptr) {
    // Re-arm a receiver parked on exactly this (context, src, tag), then
    // take another decision point so it can preempt the sender right here.
    sched->scheduler().notify_delivery(dest_world, context_, my_world, tag);
    sched->scheduler().yield(my_world);
  }
#endif
}

detail::Message Comm::take_message(int src, int tag) {
  CASP_CHECK_MSG(src >= 0 && src < size_, "recv from invalid rank " << src);
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  const int src_world = members_[static_cast<std::size_t>(src)];
  // Receives count as vmpi ops for the fault plan (delays and crash-at-op
  // schedules see the rank's full transport activity, not just its sends).
  if (world_->faults != nullptr)
    world_->faults->enter_op(my_world, *recorder_);
  // Publish what we are about to block on so the deadlock watchdog can tell
  // a stuck job from a busy one (and say who waits for whom).
  detail::RankStatus& st =
      world_->status[static_cast<std::size_t>(my_world)];
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.blocked = true;
    st.wait_context = context_;
    st.wait_src_world = src_world;
    st.wait_tag = tag;
  }
  world_->blocked.fetch_add(1, std::memory_order_relaxed);
  detail::Message msg;
  try {
#ifdef CASP_VMPI_SCHED
    SchedState* sched = world_->sched.get();
    if (sched != nullptr) {
      // Scheduled receive: re-check the mailbox while holding the token,
      // and only park in the scheduler when nothing matches. Because just
      // one rank runs at a time, a delivery can never slip in between the
      // check and the park — an empty runnable set is an exact deadlock.
      Scheduler& s = sched->scheduler();
      s.yield(my_world);
      detail::Mailbox& box =
          world_->mailboxes[static_cast<std::size_t>(my_world)];
      while (!box.try_pop(context_, src_world, tag, msg)) {
        s.block_recv(my_world, context_, src_world, tag);
      }
      if (!s.aborted()) sched->analyzer().on_recv(my_world, msg.hb_id);
    } else {
      msg = world_->mailboxes[static_cast<std::size_t>(my_world)].pop(
          context_, src_world, tag);
    }
#else
    msg = world_->mailboxes[static_cast<std::size_t>(my_world)].pop(
        context_, src_world, tag);
#endif
  } catch (...) {
    world_->blocked.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(st.mutex);
    st.blocked = false;
    throw;
  }
  world_->blocked.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.blocked = false;
  }
  world_->progress.fetch_add(1, std::memory_order_relaxed);
#ifdef CASP_VMPI_CHECK
  if (msg.has_checksum && frame_checksum(msg) != msg.checksum) {
    recorder_->add_counter("vmpi.checksum_rejects", 1);
    std::ostringstream os;
    os << "payload checksum mismatch on delivery: rank " << my_world
       << " received " << msg.bytes() << " corrupted bytes from rank "
       << src_world << " (tag " << tag << ")";
    throw TransientCommError(os.str());
  }
#endif
  return msg;
}

void Comm::send_payload(int dest, int tag, Payload payload,
                        bool fire_and_forget) {
  post_message(dest, tag, std::move(payload), fire_and_forget);
}

Payload Comm::recv_payload(int src, int tag) {
  detail::Message msg = take_message(src, tag);
#ifdef CASP_VMPI_CHECK
  verify_collective_stamp(msg, src);
#endif
  return std::move(msg.payload);
}

void Comm::barrier() {
  CASP_VMPI_COLLECTIVE(CollectiveOp::kBarrier, -1, 0);
  // Dissemination barrier: after round k every rank has (transitively)
  // heard from 2^(k+1) predecessors; ceil(lg p) rounds total.
  for (int k = 1; k < size_; k <<= 1) {
    const int dest = (rank_ + k) % size_;
    const int src = (rank_ - k % size_ + size_) % size_;
    send_value<char>(dest, kBarrierTag, 0);
    (void)recv_value<char>(src, kBarrierTag);
  }
}

Payload Comm::bcast_payload(int root, Payload data) {
  CASP_CHECK(root >= 0 && root < size_);
  if (size_ == 1) return data;
  CASP_VMPI_COLLECTIVE(CollectiveOp::kBcast, root, 0);
  const int relative = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) {
    if ((relative & mask) != 0) {
      const int src = (relative - mask + root) % size_;
      data = recv_payload(src, kBcastTag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < size_ && (relative & (mask - 1)) == 0 &&
        (relative & mask) == 0) {
      const int dest = (relative + mask + root) % size_;
      send_payload(dest, kBcastTag, data);  // handle copy, not a byte copy
    }
    mask >>= 1;
  }
  return data;
}

PendingBcast Comm::ibcast_payload(int root, Payload data) {
  CASP_CHECK(root >= 0 && root < size_);
  PendingBcast pending;
  pending.root_ = root;
  if (size_ == 1) {
    pending.data_ = std::move(data);
    pending.done_ = true;
    return pending;
  }
  // SPMD-consistent counter: every rank posts the same broadcasts in the
  // same order, so all ranks derive the same per-call tag and sequence.
  pending.tag_ = kIbcastTagBase -
                 static_cast<int>(ibcast_counter_++ % kIbcastTagSlots);
#ifdef CASP_VMPI_CHECK
  {
    CollectiveStamp stamp;
    stamp.op = CollectiveOp::kBcast;
    stamp.seq = ++collective_seq_;
    stamp.root = root;
    stamp.payload = 0;
    pending.stamp_ = stamp;
    const int my_world = members_[static_cast<std::size_t>(rank_)];
    detail::RankStatus& st =
        world_->status[static_cast<std::size_t>(my_world)];
    std::lock_guard<std::mutex> lock(st.mutex);
    st.history[st.history_count % st.history.size()] = stamp;
    ++st.history_count;
  }
#endif
  if (rank_ == root) {
    pending.data_ = std::move(data);
    // The root's whole binomial fan-out goes into the mailboxes now, so
    // receivers can overlap compute and find the data already delivered
    // when they reach their wait.
#ifdef CASP_VMPI_CHECK
    const CollectiveStamp saved = current_collective_;
    current_collective_ = pending.stamp_;
#endif
    int mask = 1;
    while (mask < size_) mask <<= 1;
    mask >>= 1;
    while (mask > 0) {
      if (mask < size_) {
        const int dest = (mask + root) % size_;
        send_payload(dest, pending.tag_, pending.data_);
      }
      mask >>= 1;
    }
#ifdef CASP_VMPI_CHECK
    current_collective_ = saved;
#endif
    pending.done_ = true;
  }
  return pending;
}

Payload Comm::bcast_wait(PendingBcast& pending) {
  CASP_CHECK_MSG(pending.valid(), "bcast_wait on an unposted PendingBcast");
  if (pending.done_) return pending.data_;  // root, size-1, or repeat wait
  const int root = pending.root_;
  const int relative = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) {
    if ((relative & mask) != 0) {
      const int src = (relative - mask + root) % size_;
      detail::Message msg = take_message(src, pending.tag_);
#ifdef CASP_VMPI_CHECK
      // current_collective_ is whatever this rank is doing *now*; the
      // broadcast's identity lives in the stamp saved at post time.
      verify_stamp_against(msg, src, pending.stamp_);
#endif
      pending.data_ = std::move(msg.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
#ifdef CASP_VMPI_CHECK
  const CollectiveStamp saved = current_collective_;
  current_collective_ = pending.stamp_;
#endif
  while (mask > 0) {
    if (relative + mask < size_ && (relative & (mask - 1)) == 0 &&
        (relative & mask) == 0) {
      const int dest = (relative + mask + root) % size_;
      send_payload(dest, pending.tag_, pending.data_);
    }
    mask >>= 1;
  }
#ifdef CASP_VMPI_CHECK
  current_collective_ = saved;
#endif
  pending.done_ = true;
  return pending.data_;
}

PendingSparse Comm::isparse_exchange(int root, Payload request) {
  CASP_CHECK(root >= 0 && root < size_);
  PendingSparse pending;
  pending.root_ = root;
  // SPMD-consistent counter, like ibcast_counter_: every rank posts the
  // same exchanges in the same order, so all ranks derive the same pair.
  const int slot = static_cast<int>(sparse_counter_++ % kSparseTagSlots);
  pending.req_tag_ = kSparseReqTagBase - slot;
  pending.data_tag_ = kSparseDataTagBase - slot;
  if (size_ == 1) {
    pending.done_ = true;
    return pending;
  }
#ifdef CASP_VMPI_CHECK
  {
    CollectiveStamp stamp;
    stamp.op = CollectiveOp::kSparseExchange;
    stamp.seq = ++collective_seq_;
    stamp.root = root;
    stamp.payload = 0;
    pending.stamp_ = stamp;
    const int my_world = members_[static_cast<std::size_t>(rank_)];
    detail::RankStatus& st =
        world_->status[static_cast<std::size_t>(my_world)];
    std::lock_guard<std::mutex> lock(st.mutex);
    st.history[st.history_count % st.history.size()] = stamp;
    ++st.history_count;
  }
#endif
  if (rank_ != root) {
    // The need-list goes into the root's mailbox now; the root drains all
    // requests when it reaches its own sparse_wait, so the metadata round
    // overlaps whatever either side computes in between.
#ifdef CASP_VMPI_CHECK
    const CollectiveStamp saved = current_collective_;
    current_collective_ = pending.stamp_;
#endif
    post_message(root, pending.req_tag_, std::move(request),
                 /*fire_and_forget=*/false);
#ifdef CASP_VMPI_CHECK
    current_collective_ = saved;
#endif
  }
  return pending;
}

std::vector<Payload> Comm::sparse_wait(PendingSparse& pending,
                                       const SparseServeFn& serve) {
  CASP_CHECK_MSG(pending.valid(), "sparse_wait on an unposted PendingSparse");
  std::vector<Payload> received;
  if (pending.done_) return received;  // size-1 communicator or repeat wait
  pending.done_ = true;
#ifdef CASP_VMPI_CHECK
  const CollectiveStamp saved = current_collective_;
  current_collective_ = pending.stamp_;
#endif
  if (rank_ == pending.root_) {
    // Serve every peer in rank order: the caller builds each reply as
    // subview handles into its packed block (no block-byte copies here),
    // the exchange ships them as one gather-list message, and the dense
    // volume the reply avoided is charged as logical-only traffic.
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      detail::Message req = take_message(r, pending.req_tag_);
#ifdef CASP_VMPI_CHECK
      verify_stamp_against(req, r, pending.stamp_);
#endif
      SparseReply reply = serve(r, std::move(req.payload));
      Bytes shipped = 0;
      for (const Payload& part : reply.parts)
        shipped += static_cast<Bytes>(part.size());
      post_message(r, pending.data_tag_, Payload(), /*fire_and_forget=*/false,
                   std::move(reply.parts));
      if (reply.dense_equivalent_bytes > shipped)
        traffic().record_unshipped(reply.dense_equivalent_bytes - shipped,
                                   members_[static_cast<std::size_t>(r)]);
    }
  } else {
    detail::Message msg = take_message(pending.root_, pending.data_tag_);
#ifdef CASP_VMPI_CHECK
    verify_stamp_against(msg, pending.root_, pending.stamp_);
#endif
    received = std::move(msg.parts);
  }
#ifdef CASP_VMPI_CHECK
  current_collective_ = saved;
#endif
  return received;
}

std::vector<std::vector<Payload>> Comm::gather_payloads(
    int root, std::vector<Payload> mine) {
  return gather_to(root, std::move(mine), CollectiveOp::kGather);
}

std::vector<std::vector<Payload>> Comm::gather_to(int root,
                                                  std::vector<Payload> mine,
                                                  CollectiveOp op) {
  CASP_CHECK(root >= 0 && root < size_);
  std::vector<std::vector<Payload>> gathered;
  if (size_ > 1) {
    CASP_VMPI_COLLECTIVE(op, root, 0);
    if (rank_ != root) {
      Payload head;
      if (!mine.empty()) {
        head = std::move(mine.front());
        mine.erase(mine.begin());
      }
      post_message(root, kGatherTag, std::move(head),
                   /*fire_and_forget=*/false, std::move(mine));
      return gathered;
    }
    gathered.resize(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      detail::Message msg = take_message(r, kGatherTag);
#ifdef CASP_VMPI_CHECK
      verify_collective_stamp(msg, r);
#endif
      std::vector<Payload>& from = gathered[static_cast<std::size_t>(r)];
      from.reserve(1 + msg.parts.size());
      from.push_back(std::move(msg.payload));
      for (Payload& part : msg.parts) from.push_back(std::move(part));
    }
  } else {
    gathered.resize(1);
  }
  gathered[static_cast<std::size_t>(root)] = std::move(mine);
  return gathered;
}

std::vector<Payload> Comm::allgather_payload(Payload mine) {
  std::vector<Payload> gathered(static_cast<std::size_t>(size_));
  if (size_ == 1) {
    gathered[0] = std::move(mine);
    return gathered;
  }
  std::vector<Payload> one;
  one.push_back(std::move(mine));
  const std::vector<std::vector<Payload>> lists =
      gather_to(0, std::move(one), CollectiveOp::kAllgather);
  // Rank 0 builds one packed concatenation (with per-rank length headers) —
  // the only byte copy in the collective — then every rank, rank 0
  // included, returns subviews into the shared broadcast buffer.
  Payload packed;
  if (rank_ == 0) {
    std::size_t total =
        sizeof(std::uint64_t) * static_cast<std::size_t>(size_);
    for (const std::vector<Payload>& from : lists) total += from[0].size();
    std::vector<std::byte> buf;
    buf.reserve(total);
    for (const std::vector<Payload>& from : lists) {
      const Payload& p = from[0];
      const std::uint64_t len = p.size();
      static_assert(std::is_trivially_copyable_v<std::uint64_t>);
      const auto* lenp = reinterpret_cast<const std::byte*>(&len);
      buf.insert(buf.end(), lenp, lenp + sizeof(len));
      buf.insert(buf.end(), p.data(), p.data() + p.size());
    }
    packed = Payload::wrap(std::move(buf));
  }
  packed = bcast_payload(0, std::move(packed));
  std::size_t offset = 0;
  for (int r = 0; r < size_; ++r) {
    std::uint64_t len = 0;
    std::memcpy(&len, packed.data() + offset, sizeof(len));
    offset += sizeof(len);
    gathered[static_cast<std::size_t>(r)] =
        packed.subview(offset, static_cast<std::size_t>(len));
    offset += len;
  }
  return gathered;
}

std::vector<Payload> Comm::alltoall_payload(std::vector<Payload> buffers) {
  CASP_CHECK_MSG(static_cast<int>(buffers.size()) == size_,
                 "alltoall: need exactly one buffer per rank");
  CASP_VMPI_COLLECTIVE(CollectiveOp::kAlltoall, -1, 0);
  std::vector<Payload> received(static_cast<std::size_t>(size_));
  received[static_cast<std::size_t>(rank_)] =
      std::move(buffers[static_cast<std::size_t>(rank_)]);
  // Pairwise exchange: p-1 rounds of shifted partners; sends are
  // asynchronous (mailbox push) so the symmetric schedule cannot deadlock.
  for (int shift = 1; shift < size_; ++shift) {
    const int dest = (rank_ + shift) % size_;
    const int src = (rank_ - shift + size_) % size_;
    send_payload(dest, kAlltoallTag,
                 std::move(buffers[static_cast<std::size_t>(dest)]));
    received[static_cast<std::size_t>(src)] = recv_payload(src, kAlltoallTag);
  }
  return received;
}

Comm Comm::split(int color, int key) {
  // Exchange (color, key, world_rank) over the parent communicator, then
  // each member deterministically builds its child group.
  struct Entry {
    int color;
    int key;
    int parent_rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all;
  {
    CASP_VMPI_COLLECTIVE(CollectiveOp::kSplit, -1, 0);
    all = allgather_value(mine);
  }

  std::vector<Entry> group;
  for (const Entry& e : all)
    if (e.color == color) group.push_back(e);
  std::stable_sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.parent_rank < b.parent_rank;
  });

  std::vector<int> members;
  int my_pos = -1;
  members.reserve(group.size());
  for (const Entry& e : group) {
    if (e.parent_rank == rank_) my_pos = static_cast<int>(members.size());
    members.push_back(members_[static_cast<std::size_t>(e.parent_rank)]);
  }
  CASP_CHECK(my_pos >= 0);

  // All members of the parent agree on split_counter_ (they all called
  // split the same number of times), so the derived context matches.
  ++split_counter_;
  const std::uint64_t child_context =
      context_ * 0x100000001b3ULL + split_counter_ * 0x9e3779b9ULL +
      static_cast<std::uint64_t>(color) + 1;

#ifdef CASP_VMPI_CHECK
  // Register the split edge so the watchdog can recognize parent/child
  // collective interleaving (idempotent: every member inserts the same
  // edge, and colors sharing a parent register side by side).
  {
    std::lock_guard<std::mutex> lock(world_->comm_tree_mutex);
    world_->comm_parent.emplace(child_context, context_);
  }
#endif

  Comm child(world_, child_context, std::move(members), my_pos);
  child.recorder_ = recorder_;
  return child;
}

}  // namespace casp::vmpi
