#include "sim/workload.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "net/wire.h"

namespace collie {

const char* to_string(QpType t) {
  switch (t) {
    case QpType::kRC:
      return "RC";
    case QpType::kUC:
      return "UC";
    case QpType::kUD:
      return "UD";
  }
  return "?";
}

const char* to_string(Opcode o) {
  switch (o) {
    case Opcode::kSend:
      return "SEND";
    case Opcode::kWrite:
      return "WRITE";
    case Opcode::kRead:
      return "READ";
  }
  return "?";
}

bool transport_supports(QpType t, Opcode o) {
  switch (t) {
    case QpType::kRC:
      return true;
    case QpType::kUC:
      return o == Opcode::kSend || o == Opcode::kWrite;
    case QpType::kUD:
      return o == Opcode::kSend;
  }
  return false;
}

int Workload::wqes_per_round() const {
  if (pattern.empty() || sge_per_wqe <= 0) return 0;
  const int n = static_cast<int>(pattern.size());
  return (n + sge_per_wqe - 1) / sge_per_wqe;
}

u64 Workload::message_bytes(int wqe_index) const {
  u64 sum = 0;
  const int n = static_cast<int>(pattern.size());
  const int begin = wqe_index * sge_per_wqe;
  for (int i = begin; i < begin + sge_per_wqe && i < n; ++i) {
    sum += pattern[static_cast<std::size_t>(i)];
  }
  return sum;
}

bool Workload::valid(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!transport_supports(qp_type, opcode)) {
    return fail("transport does not support opcode");
  }
  if (pattern.empty()) return fail("empty message pattern");
  if (num_qps < 1) return fail("num_qps < 1");
  if (wqe_batch < 1) return fail("wqe_batch < 1");
  if (sge_per_wqe < 1) return fail("sge_per_wqe < 1");
  if (send_wq_depth < 1 || recv_wq_depth < 1) return fail("wq depth < 1");
  if (wqe_batch > send_wq_depth) return fail("batch exceeds send WQ depth");
  if (mrs_per_qp < 1) return fail("mrs_per_qp < 1");
  if (mr_size == 0) return fail("mr_size == 0");
  if (mtu < 256 || mtu > 4096) return fail("mtu outside [256, 4096]");
  for (u64 s : pattern) {
    if (s == 0) return fail("zero-length SGE in pattern");
    if (s > mr_size) return fail("SGE larger than MR");
  }
  if (qp_type == QpType::kUD) {
    // UD messages must fit a single MTU (no segmentation for datagrams).
    for (int i = 0; i < wqes_per_round(); ++i) {
      if (message_bytes(i) > mtu) return fail("UD message exceeds MTU");
    }
  }
  if (loopback && opcode == Opcode::kRead) {
    return fail("loopback co-traffic modeled for SEND/WRITE only");
  }
  if (dcqcn_rate_ai_mbps <= 0.0) return fail("dcqcn_rate_ai_mbps <= 0");
  if (dcqcn_g <= 0.0 || dcqcn_g > 1.0) {
    return fail("dcqcn_g outside (0, 1]");
  }
  return true;
}

std::string Workload::describe() const {
  std::ostringstream os;
  os << (bidirectional ? "Bi-" : "Uni-") << " " << to_string(qp_type) << " "
     << to_string(opcode) << " qps=" << num_qps << " mtu=" << mtu
     << " batch=" << wqe_batch << " sge=" << sge_per_wqe << " swq="
     << send_wq_depth << " rwq=" << recv_wq_depth << " mrs=" << mrs_per_qp
     << "x" << format_bytes(mr_size) << " mem=" << topo::to_string(local_mem)
     << "->" << topo::to_string(remote_mem)
     << (loopback ? " +loopback" : "");
  if (dcqcn) {
    os << " +dcqcn(ai=" << dcqcn_rate_ai_mbps << "M,g=" << dcqcn_g << ")";
  }
  os << " pattern=[";
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (i) os << ",";
    os << format_bytes(pattern[i]);
  }
  os << "]";
  return os.str();
}

// One walk over the pattern: each WQE's SGEs are summed in order (the
// integer sum message_bytes() returns) and counted in the same loop, and
// the per-WQE doubles accumulate in WQE order, as a per-WQE message_bytes()
// loop would.  A power-of-two MTU (every MTU the search space offers)
// divides by a shift: for unsigned operands that is the same quotient as
// net::packets_for_message's divide.
PatternStats analyze_pattern(const Workload& w) {
  PatternStats s;
  const int wqes = w.wqes_per_round();
  if (wqes == 0) return s;
  s.wqes_per_round = wqes;
  const u64* sge = w.pattern.data();
  const u64* const pattern_end = sge + w.pattern.size();
  const u64 mtu = w.mtu;
  const bool mtu_pow2 = std::has_single_bit(w.mtu);
  const int mtu_shift = std::countr_zero(w.mtu);
  int small_msgs = 0;
  int large_msgs = 0;
  int small_sges = 0;
  int large_sges = 0;
  for (int i = 0; i < wqes; ++i) {
    const u64* const wqe_end =
        pattern_end - sge > w.sge_per_wqe ? sge + w.sge_per_wqe : pattern_end;
    u64 msg = 0;
    for (; sge != wqe_end; ++sge) {
      msg += *sge;
      if (*sge <= 1 * KiB) ++small_sges;
      if (*sge >= 64 * KiB) ++large_sges;
    }
    s.bytes_per_round += static_cast<double>(msg);
    s.max_msg_bytes = std::max(s.max_msg_bytes, static_cast<double>(msg));
    const u64 pkts = !mtu_pow2   ? net::packets_for_message(msg, w.mtu)
                     : msg == 0 ? 1
                                : (msg + mtu - 1) >> mtu_shift;
    s.pkts_per_round += static_cast<double>(pkts);
    if (msg <= 1 * KiB) ++small_msgs;
    if (msg >= 64 * KiB) ++large_msgs;
  }
  s.avg_msg_bytes = s.bytes_per_round / s.wqes_per_round;
  s.frac_small_msgs = static_cast<double>(small_msgs) / wqes;
  s.frac_large_msgs = static_cast<double>(large_msgs) / wqes;
  s.frac_small_sges =
      static_cast<double>(small_sges) / static_cast<double>(w.pattern.size());
  s.frac_large_sges =
      static_cast<double>(large_sges) / static_cast<double>(w.pattern.size());
  s.avg_pkts_per_msg = s.pkts_per_round / s.wqes_per_round;
  return s;
}

}  // namespace collie
