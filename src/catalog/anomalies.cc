#include "catalog/anomalies.h"

#include <algorithm>
#include <stdexcept>

namespace collie::catalog {
namespace {

using topo::MemKind;
using topo::MemPlacement;

// Message-level pattern helpers for the region predicates.
bool all_msgs_at_most(const Workload& w, u64 bytes) {
  for (int i = 0; i < w.wqes_per_round(); ++i) {
    if (w.message_bytes(i) > bytes) return false;
  }
  return true;
}

bool all_msgs_at_least(const Workload& w, u64 bytes) {
  for (int i = 0; i < w.wqes_per_round(); ++i) {
    if (w.message_bytes(i) < bytes) return false;
  }
  return true;
}

bool msg_mix_small_large(const Workload& w) {
  const PatternStats p = analyze_pattern(w);
  return p.frac_small_msgs > 0.0 && p.frac_large_msgs > 0.0;
}

bool sge_mix_small_large(const Workload& w) {
  if (w.sge_per_wqe < 2) return false;
  const PatternStats p = analyze_pattern(w);
  return p.frac_small_sges > 0.0 && p.frac_large_sges > 0.0;
}

bool uses_gpu(const Workload& w) {
  return w.local_mem.kind == MemKind::kGpu ||
         w.remote_mem.kind == MemKind::kGpu;
}

bool cross_socket_dram(const Workload& w) {
  // NIC sits on socket 0 on every modeled host; DRAM on a NUMA node of any
  // other socket makes the DMA path cross the interconnect.  NPS layouts
  // put >= 1 node per socket, so "node >= 1 on a 2-socket host" is decided
  // by the subsystem; the region check stays conservative: non-zero node.
  return (w.local_mem.kind == MemKind::kDram && w.local_mem.index >= 1) ||
         (w.remote_mem.kind == MemKind::kDram && w.remote_mem.index >= 1);
}

Workload base_workload() {
  Workload w;
  w.local_mem = {MemKind::kDram, 0};
  w.remote_mem = {MemKind::kDram, 0};
  w.mrs_per_qp = 1;
  w.mr_size = 64 * KiB;
  w.wqe_batch = 1;
  w.sge_per_wqe = 1;
  w.send_wq_depth = 128;
  w.recv_wq_depth = 128;
  w.mtu = 4096;
  return w;
}

std::vector<AnomalyInfo> build_catalog() {
  std::vector<AnomalyInfo> c;

  // ---- #1 (new): UD SEND, large WQE batch, long WQ -> pause frames ----
  {
    AnomalyInfo a;
    a.id = 1;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "UD SEND";
    a.mtu = "-";
    a.wqe = ">=64";
    a.sge = "-";
    a.wq_depth = ">=256";
    a.message_pattern = "-";
    a.num_qps = "-";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kUD;
    w.opcode = Opcode::kSend;
    w.num_qps = 1;
    w.mtu = 2048;
    w.send_wq_depth = 256;
    w.recv_wq_depth = 256;
    w.wqe_batch = 64;
    w.pattern = {2048};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kUD && x.opcode == Opcode::kSend &&
             x.wqe_batch >= 64 && x.recv_wq_depth >= 256;
    };
    c.push_back(std::move(a));
  }

  // ---- #2 (new): UD SEND, small batch, long WQ, small msgs -> low tput ----
  {
    AnomalyInfo a;
    a.id = 2;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kLowThroughput;
    a.direction = "-";
    a.transport = "UD SEND";
    a.mtu = "-";
    a.wqe = "<=8";
    a.sge = "-";
    a.wq_depth = ">=1024";
    a.message_pattern = "<=1KB";
    a.num_qps = ">=~16";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kUD;
    w.opcode = Opcode::kSend;
    w.num_qps = 16;
    w.mtu = 1024;
    w.send_wq_depth = 1024;
    w.recv_wq_depth = 1024;
    w.wqe_batch = 4;
    w.pattern = {1024};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kUD && x.opcode == Opcode::kSend &&
             x.wqe_batch <= 8 && x.recv_wq_depth >= 1024 &&
             all_msgs_at_most(x, 1 * KiB) && x.num_qps >= 12;
    };
    c.push_back(std::move(a));
  }

  // ---- #3 (new): RC READ, large msgs, small MTU -> pause frames ----
  {
    AnomalyInfo a;
    a.id = 3;
    a.is_new = true;
    a.fixed = true;  // fixed by moving deployment MTU to 4200
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "RC READ";
    a.mtu = "1K";
    a.wqe = "-";
    a.sge = "-";
    a.wq_depth = "-";
    a.message_pattern = ">=16KB";
    a.num_qps = "-";
    a.root_cause = "RNIC packet processing bottleneck";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kRead;
    w.num_qps = 8;
    w.mr_size = 4 * MiB;
    w.mtu = 1024;
    w.wqe_batch = 8;
    w.pattern = {4 * MiB};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kRead &&
             x.mtu <= 1024 && all_msgs_at_least(x, 16 * KiB) &&
             !x.bidirectional;
    };
    c.push_back(std::move(a));
  }

  // ---- #4 (new): bidir RC READ, large batch, long SG list -> pause ----
  {
    AnomalyInfo a;
    a.id = 4;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "RC READ";
    a.mtu = "-";
    a.wqe = ">=32";
    a.sge = ">=4";
    a.wq_depth = "-";
    a.message_pattern = "-";
    a.num_qps = ">=~160";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kRead;
    w.bidirectional = true;
    w.num_qps = 80;  // per direction; ~160 in Table 2's combined count
    w.mtu = 4096;
    w.wqe_batch = 128;
    w.sge_per_wqe = 4;
    w.pattern = {128, 128, 128, 128};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kRead &&
             x.bidirectional && x.wqe_batch >= 32 && x.sge_per_wqe >= 4 &&
             x.num_qps >= 78;
    };
    c.push_back(std::move(a));
  }

  // ---- #5 (new): RC SEND, small MTU, large batch, long WQ -> pause ----
  {
    AnomalyInfo a;
    a.id = 5;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "RC SEND";
    a.mtu = "1K";
    a.wqe = ">=64";
    a.sge = "-";
    a.wq_depth = ">=1024";
    a.message_pattern = ">=2KB and <=8KB";
    a.num_qps = "-";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kSend;
    w.num_qps = 1;
    w.mtu = 1024;
    w.send_wq_depth = 1024;
    w.recv_wq_depth = 1024;
    w.wqe_batch = 64;
    w.sge_per_wqe = 2;
    w.pattern = {1024, 1024};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kSend &&
             x.mtu <= 1024 && x.wqe_batch >= 64 && x.recv_wq_depth >= 1024 &&
             all_msgs_at_least(x, 2 * KiB) && all_msgs_at_most(x, 8 * KiB);
    };
    c.push_back(std::move(a));
  }

  // ---- #6 (new): RC SEND, small MTU, small batch, SG>=2, long WQ ----
  {
    AnomalyInfo a;
    a.id = 6;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kLowThroughput;
    a.direction = "-";
    a.transport = "RC SEND";
    a.mtu = "1K";
    a.wqe = "<=16";
    a.sge = ">=2";
    a.wq_depth = ">=1024";
    a.message_pattern = "<=1KB";
    a.num_qps = ">=~32";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kSend;
    w.num_qps = 32;
    w.mtu = 1024;
    w.send_wq_depth = 1024;
    w.recv_wq_depth = 1024;
    w.wqe_batch = 8;
    w.sge_per_wqe = 2;
    w.pattern = {512, 512};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kSend &&
             x.mtu <= 1024 && x.wqe_batch <= 16 && x.sge_per_wqe >= 2 &&
             x.recv_wq_depth >= 1024 && all_msgs_at_most(x, 1 * KiB) &&
             x.num_qps >= 24;
    };
    c.push_back(std::move(a));
  }

  // ---- #7 (new): RC WRITE, many QPs, small msgs, shallow WQ ----
  {
    AnomalyInfo a;
    a.id = 7;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kLowThroughput;
    a.direction = "-";
    a.transport = "RC WRITE";
    a.mtu = "-";
    a.wqe = "No";
    a.sge = "-";
    a.wq_depth = "<=16";
    a.message_pattern = "<=1KB";
    a.num_qps = ">=~500";
    a.root_cause =
        "interconnect context memory (QPC) cache misses reduce sending rate";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.num_qps = 480;
    w.mtu = 1024;
    w.send_wq_depth = 16;
    w.recv_wq_depth = 16;
    w.wqe_batch = 1;
    w.pattern = {512};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kWrite &&
             x.wqe_batch <= 2 && x.send_wq_depth <= 32 &&
             all_msgs_at_most(x, 1 * KiB) && x.num_qps >= 400;
    };
    c.push_back(std::move(a));
  }

  // ---- #8 (new): RC WRITE, many MRs, small msgs ----
  {
    AnomalyInfo a;
    a.id = 8;
    a.is_new = true;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kLowThroughput;
    a.direction = "-";
    a.transport = "RC WRITE";
    a.mtu = "-";
    a.wqe = "No";
    a.sge = "-";
    a.wq_depth = "-";
    a.message_pattern = "<=1KB and >=~12K MRs";
    a.num_qps = "-";
    a.root_cause =
        "interconnect context memory (MTT) cache misses reduce sending rate";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.num_qps = 24;
    w.mrs_per_qp = 1024;
    w.mtu = 1024;
    w.wqe_batch = 1;
    w.pattern = {512};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kWrite &&
             x.wqe_batch <= 2 && all_msgs_at_most(x, 1 * KiB) &&
             x.total_mrs() >= 10000;
    };
    c.push_back(std::move(a));
  }

  // ---- #9 (old): bidir traffic, small/large mix in SG list ----
  {
    AnomalyInfo a;
    a.id = 9;
    a.is_new = false;
    a.fixed = true;  // forced relaxed-ordering PCIe configuration
    a.chip = "CX-6";
    a.primary_subsystem = 'F';  // platform trigger lives on E-family hosts
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "-";
    a.mtu = "-";
    a.wqe = "-";
    a.sge = ">=3";
    a.wq_depth = "-";
    a.message_pattern = "mix of <=1KB & >=64KB";
    a.num_qps = "-";
    a.root_cause = "PCIe controller blocks RNIC from reading host memory";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 8;
    w.mr_size = 4 * MiB;
    w.mtu = 4096;
    w.wqe_batch = 8;
    w.sge_per_wqe = 3;
    w.pattern = {128, 64 * KiB, 1024};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.bidirectional && x.sge_per_wqe >= 2 && sge_mix_small_large(x);
    };
    c.push_back(std::move(a));
  }

  // ---- #10 (new): bidir RC WRITE, large batch, short+long mix ----
  {
    AnomalyInfo a;
    a.id = 10;
    a.is_new = true;
    a.fixed = true;  // upcoming firmware release
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "RC WRITE";
    a.mtu = "-";
    a.wqe = ">=64";
    a.sge = "-";
    a.wq_depth = "-";
    a.message_pattern = "mix of <=1KB & >=64KB";
    a.num_qps = ">=~320";
    a.root_cause = "RNIC packet processing bottleneck";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 320;
    w.mtu = 1024;
    w.wqe_batch = 64;
    w.pattern = {64 * KiB, 128, 128, 128};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kWrite &&
             x.bidirectional && x.wqe_batch >= 64 && msg_mix_small_large(x) &&
             x.num_qps >= 256 && x.sge_per_wqe <= 1;
    };
    c.push_back(std::move(a));
  }

  // ---- #11 (new): bidirectional cross-socket traffic ----
  {
    AnomalyInfo a;
    a.id = 11;
    a.is_new = true;
    a.fixed = true;  // 2x100G NIC, one per socket
    a.chip = "CX-6";
    a.primary_subsystem = 'F';  // platform trigger lives on G-family hosts
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "(cross-socket traffic on particular AMD servers)";
    a.message_pattern = "-";
    a.num_qps = "-";
    a.root_cause = "host topology increases PCIe latency";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 1;
    w.mrs_per_qp = 32;
    w.mr_size = 4 * MiB;
    w.mtu = 4096;
    w.wqe_batch = 16;
    w.pattern = {256 * KiB};
    w.local_mem = {MemKind::kDram, 0};
    w.remote_mem = {MemKind::kDram, 1};  // socket 1 on the 2-socket hosts
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.bidirectional && cross_socket_dram(x);
    };
    c.push_back(std::move(a));
  }

  // ---- #12 (old): GPU-direct RDMA on mis-bridged servers ----
  {
    AnomalyInfo a;
    a.id = 12;
    a.is_new = false;
    a.fixed = true;  // corrected PCIe ACSCtl configuration
    a.chip = "CX-6";
    a.primary_subsystem = 'F';  // platform trigger lives on E-family hosts
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "(GPU-Direct RDMA traffic on particular servers)";
    a.message_pattern = "-";
    a.num_qps = "-";
    a.root_cause = "host topology increases PCIe latency";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 8;
    w.mr_size = 4 * MiB;
    w.mtu = 4096;
    w.wqe_batch = 8;
    w.sge_per_wqe = 3;
    w.pattern = {128, 64 * KiB, 1024};
    w.local_mem = {MemKind::kGpu, 0};
    w.remote_mem = {MemKind::kGpu, 0};
    a.concrete = w;
    a.region = [](const Workload& x) { return uses_gpu(x); };
    c.push_back(std::move(a));
  }

  // ---- #13 (old): loopback + receive traffic ----
  {
    AnomalyInfo a;
    a.id = 13;
    a.is_new = false;
    a.chip = "CX-6";
    a.primary_subsystem = 'F';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "(co-existence of loopback and receiving traffic)";
    a.message_pattern = "-";
    a.num_qps = "-";
    a.root_cause = "in-NIC incast congestion";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.loopback = true;
    w.num_qps = 16;
    w.mrs_per_qp = 32;
    w.mr_size = 4 * MiB;
    w.mtu = 4096;
    w.wqe_batch = 16;
    w.pattern = {256 * KiB};
    a.concrete = w;
    a.region = [](const Workload& x) { return x.loopback; };
    c.push_back(std::move(a));
  }

  // ---- #14 (new, P2100G): bidir RC, many QPs, large MTU -> low tput ----
  {
    AnomalyInfo a;
    a.id = 14;
    a.is_new = true;
    a.chip = "P2100";
    a.primary_subsystem = 'H';
    a.symptom = Symptom::kLowThroughput;
    a.direction = "Bi-";
    a.transport = "RC";
    a.mtu = "4K";
    a.wqe = "-";
    a.sge = ">=4";
    a.wq_depth = "-";
    a.message_pattern = "-";
    a.num_qps = ">=~1300";
    a.root_cause = "TX scheduler inefficiency at large MTU (vendor register fix)";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 1024;
    w.mrs_per_qp = 82;
    w.mr_size = 256 * KiB;
    w.mtu = 4096;
    w.wqe_batch = 1;
    w.sge_per_wqe = 4;
    w.pattern = {64 * KiB, 64 * KiB, 64 * KiB, 64 * KiB};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.bidirectional && x.mtu >= 4096 &&
             x.num_qps >= 1000;
    };
    c.push_back(std::move(a));
  }

  // ---- #15 (new, P2100G): UD, long WQ, many connections -> pause ----
  {
    AnomalyInfo a;
    a.id = 15;
    a.is_new = true;
    a.chip = "P2100";
    a.primary_subsystem = 'H';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "UD SEND";
    a.mtu = "-";
    a.wqe = "-";
    a.sge = "-";
    a.wq_depth = ">=64";
    a.message_pattern = "-";
    a.num_qps = ">=~32";
    a.root_cause = "receive WQE cache miss bottlenecks RNIC receiving rate";
    Workload w = base_workload();
    w.qp_type = QpType::kUD;
    w.opcode = Opcode::kSend;
    w.num_qps = 32;
    w.mr_size = 4 * KiB;
    w.mtu = 2048;
    w.send_wq_depth = 64;
    w.recv_wq_depth = 64;
    w.wqe_batch = 1;
    w.pattern = {256, 1024, 64, 1024};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kUD && x.opcode == Opcode::kSend &&
             x.recv_wq_depth >= 64 && x.num_qps >= 28;
    };
    c.push_back(std::move(a));
  }

  // ---- #16 (new, P2100G): RC READ, many QPs, batch, small MTU ----
  {
    AnomalyInfo a;
    a.id = 16;
    a.is_new = true;
    a.chip = "P2100";
    a.primary_subsystem = 'H';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "RC READ";
    a.mtu = "1K";
    a.wqe = ">=8";
    a.sge = "-";
    a.wq_depth = "-";
    a.message_pattern = "-";
    a.num_qps = ">=~500";
    a.root_cause = "RNIC packet processing bottleneck";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kRead;
    w.num_qps = 500;
    w.mr_size = 256 * KiB;
    w.mtu = 1024;
    w.wqe_batch = 8;
    w.pattern = {64 * KiB};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kRead &&
             x.mtu <= 1024 && x.wqe_batch >= 8 && x.num_qps >= 400;
    };
    c.push_back(std::move(a));
  }

  // ---- #17 (new, P2100G): RC SEND, small batch, small MTU, short msgs ----
  {
    AnomalyInfo a;
    a.id = 17;
    a.is_new = true;
    a.fixed = true;  // vendor register configuration
    a.chip = "P2100";
    a.primary_subsystem = 'H';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "-";
    a.transport = "RC SEND";
    a.mtu = "-";
    a.wqe = "<=16";
    a.sge = "-";
    a.wq_depth = ">=128";
    a.message_pattern = "<=1KB";
    a.num_qps = ">=~64";
    a.root_cause = "receive WQE cache behaviour (vendor register fix)";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kSend;
    w.num_qps = 80;
    w.mr_size = 1 * MiB;
    w.mtu = 1024;
    w.wqe_batch = 1;
    w.pattern = {1024};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kSend &&
             x.wqe_batch <= 16 && x.mtu <= 1024 &&
             all_msgs_at_most(x, 1 * KiB) && x.recv_wq_depth >= 128 &&
             x.num_qps >= 32;
    };
    c.push_back(std::move(a));
  }

  // ---- #18 (new, P2100G): bidir RC WRITE, batch, small msgs -> pause ----
  {
    AnomalyInfo a;
    a.id = 18;
    a.is_new = true;
    a.fixed = true;  // vendor register configuration
    a.chip = "P2100";
    a.primary_subsystem = 'H';
    a.symptom = Symptom::kPauseFrames;
    a.direction = "Bi-";
    a.transport = "RC";
    a.mtu = "1K";
    a.wqe = ">=32";
    a.sge = "-";
    a.wq_depth = "-";
    a.message_pattern = "<=64KB";
    a.num_qps = ">=~30";
    a.root_cause = "RNIC packet processing bottleneck";
    Workload w = base_workload();
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.bidirectional = true;
    w.num_qps = 16;
    w.mr_size = 64 * KiB;  // Appendix A says 12KB but its own SGE is 64KB
    w.mtu = 1024;
    w.send_wq_depth = 64;
    w.recv_wq_depth = 64;
    w.wqe_batch = 16;
    w.pattern = {64 * KiB};
    a.concrete = w;
    a.region = [](const Workload& x) {
      return x.qp_type == QpType::kRC && x.opcode == Opcode::kWrite &&
             x.bidirectional && x.wqe_batch >= 8 && x.mtu <= 1024 &&
             all_msgs_at_most(x, 64 * KiB) && x.num_qps >= 12;
    };
    c.push_back(std::move(a));
  }

  return c;
}

}  // namespace

const char* to_string(Symptom s) {
  switch (s) {
    case Symptom::kPauseFrames:
      return "pause frame";
    case Symptom::kLowThroughput:
      return "low throup.";
  }
  return "?";
}

Symptom to_catalog(core::Symptom s) {
  return s == core::Symptom::kPauseFrames ? Symptom::kPauseFrames
                                          : Symptom::kLowThroughput;
}

const std::vector<AnomalyInfo>& all_anomalies() {
  static const std::vector<AnomalyInfo> kCatalog = build_catalog();
  return kCatalog;
}

const AnomalyInfo& anomaly(int id) {
  for (const auto& a : all_anomalies()) {
    if (a.id == id) return a;
  }
  throw std::out_of_range("no such anomaly id: " + std::to_string(id));
}

std::vector<const AnomalyInfo*> anomalies_for_chip(const std::string& chip) {
  std::vector<const AnomalyInfo*> out;
  for (const auto& a : all_anomalies()) {
    if (a.chip == chip) out.push_back(&a);
  }
  return out;
}

int label_by_mechanism(const std::string& chip, const std::string& fabric,
                       const Workload& w, sim::Bottleneck dominant,
                       Symptom observed) {
  (void)observed;
  const bool cx6 = chip == "CX-6";
  const bool p2100 = chip == "P2100";
  using B = sim::Bottleneck;
  switch (dominant) {
    case B::kRwqeBurstMiss:
      if (p2100) return w.qp_type == QpType::kUD ? 15 : 17;
      return w.qp_type == QpType::kUD ? 1 : 5;
    case B::kRwqeSteadyMiss:
      if (p2100) return 0;
      return w.qp_type == QpType::kUD ? 2 : 6;
    case B::kReadPacketProcessing:
      return p2100 ? 16 : 3;
    case B::kRequestTracker:
      if (p2100) return 18;
      return w.opcode == Opcode::kRead ? 4 : 10;
    case B::kQpcCacheMiss:
      return cx6 ? 7 : 0;
    case B::kMttCacheMiss:
      return cx6 ? 8 : 0;
    case B::kPcieOrdering:
      if (!cx6) return 0;
      return uses_gpu(w) ? 12 : 9;
    case B::kHostTopologyPath:
      if (!cx6) return 0;
      return uses_gpu(w) ? 12 : 11;
    case B::kNicIncast:
      return cx6 ? 13 : 0;
    case B::kPcieBandwidth:
      // The loopback incast shows up as PCIe-write saturation on the
      // co-located host (root cause family of #13); GPU-direct traffic
      // saturating the detoured root-complex path is the #12 family.
      if (cx6 && w.loopback) return 13;
      if (cx6 && uses_gpu(w)) return 12;
      return 0;
    case B::kMtuSchedulerQuirk:
      return p2100 ? 14 : 0;
    case B::kFabricCongestion:
      // Fabric-level mechanisms attribute by scenario, not chip: the same
      // congestion tag means "slow-port rate mismatch" under hetero and
      // "ToR fan-in oversubscription" under fanin4.  On the paper's
      // identical pair the simulator never emits this tag as a standalone
      // anomaly mechanism, so it stays unlabeled there.
      if (fabric == "hetero") return 101;
      if (fabric == "fanin4") return 102;
      return 0;
    default:
      return 0;
  }
}

int identify(const std::string& chip, const std::string& fabric,
             const Workload& witness, sim::Bottleneck dominant,
             Symptom observed) {
  const int id = label_by_mechanism(chip, fabric, witness, dominant, observed);
  if (id != 0) return id;
  const std::vector<int> labels = label(chip, witness, observed);
  return labels.empty() ? 0 : labels.front();
}

std::vector<int> label(const std::string& chip, const Workload& w,
                       Symptom observed) {
  std::vector<int> ids;
  for (const auto& a : all_anomalies()) {
    if (a.chip != chip) continue;
    if (a.symptom != observed) continue;
    if (a.region && a.region(w)) ids.push_back(a.id);
  }
  return ids;
}

}  // namespace collie::catalog
