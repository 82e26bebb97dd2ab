#include "vmpi/check.hpp"

#include <sstream>

namespace casp::vmpi {

const char* collective_op_name(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kNone:
      return "point-to-point";
    case CollectiveOp::kBarrier:
      return "barrier";
    case CollectiveOp::kBcast:
      return "bcast";
    case CollectiveOp::kReduce:
      return "allreduce";
    case CollectiveOp::kAllgather:
      return "allgather";
    case CollectiveOp::kAlltoall:
      return "alltoall";
    case CollectiveOp::kSplit:
      return "split";
    case CollectiveOp::kSparseExchange:
      return "sparse-exchange";
    case CollectiveOp::kGather:
      return "gather";
  }
  return "unknown";
}

std::string describe_stamp(const CollectiveStamp& stamp) {
  std::ostringstream os;
  os << collective_op_name(stamp.op);
  if (stamp.op == CollectiveOp::kNone) return os.str();
  os << " #" << stamp.seq;
  if (stamp.root >= 0) os << " (root " << stamp.root << ")";
  if (stamp.op == CollectiveOp::kReduce)
    os << " [" << stamp.payload << " bytes]";
  return os.str();
}

CollectiveMismatch::CollectiveMismatch(const std::string& what)
    : std::logic_error(what) {}

DeadlockDetected::DeadlockDetected(const std::string& what)
    : std::runtime_error(what) {}

MessageLeak::MessageLeak(const std::string& what) : std::logic_error(what) {}

CommunicatorOrderViolation::CommunicatorOrderViolation(const std::string& what)
    : std::logic_error(what) {}

}  // namespace casp::vmpi
