#include "workload/engine.h"

#include <algorithm>
#include <cstring>

#include "verbs/verbs.h"
#include "workload/backend_sim.h"

namespace collie::workload {
namespace {

verbs::QpType to_verbs(QpType t) {
  switch (t) {
    case QpType::kRC:
      return verbs::QpType::kRC;
    case QpType::kUC:
      return verbs::QpType::kUC;
    case QpType::kUD:
      return verbs::QpType::kUD;
  }
  return verbs::QpType::kRC;
}

verbs::WrOpcode to_verbs(Opcode o) {
  switch (o) {
    case Opcode::kSend:
      return verbs::WrOpcode::kSend;
    case Opcode::kWrite:
      return verbs::WrOpcode::kWrite;
    case Opcode::kRead:
      return verbs::WrOpcode::kRead;
  }
  return verbs::WrOpcode::kWrite;
}

struct HostState {
  verbs::Context* ctx = nullptr;
  verbs::Pd* pd = nullptr;
  verbs::Cq* cq = nullptr;
  std::vector<std::vector<u8>> buffers;
  std::vector<verbs::Mr*> mrs;
  std::vector<verbs::Qp*> qps;
};

bool setup_host(HostState& h, verbs::Network& net, const Workload& w,
                int qps, int mrs_per_qp, std::string* error) {
  verbs::DeviceAttr attr;
  attr.port_mtu = w.mtu;
  h.ctx = net.add_host(attr);
  h.pd = h.ctx->alloc_pd();
  h.cq = h.ctx->create_cq(65536);
  if (h.cq == nullptr) {
    *error = "create_cq failed";
    return false;
  }
  // One pattern round touches MR 0 and, for SEND receives, the first MR of
  // each QP.  Only those get storage; every other MR keeps its registration
  // and length over MR 0's buffer, which no work request reaches through it.
  const int total_mrs = qps * mrs_per_qp;
  h.buffers.resize(static_cast<std::size_t>(total_mrs));
  for (int i = 0; i < total_mrs; ++i) {
    std::vector<u8>& buffer = h.buffers[static_cast<std::size_t>(i)];
    if (i == 0 || (w.opcode == Opcode::kSend && i % mrs_per_qp == 0)) {
      buffer.assign(w.mr_size, u8{0});
    }
    u8* storage = buffer.empty() ? h.buffers[0].data() : buffer.data();
    verbs::Mr* mr = h.ctx->reg_mr(
        h.pd, storage, w.mr_size,
        verbs::kLocalWrite | verbs::kRemoteWrite | verbs::kRemoteRead);
    if (mr == nullptr) {
      *error = "reg_mr failed";
      return false;
    }
    h.mrs.push_back(mr);
  }
  verbs::QpCap cap;
  cap.max_send_wr = w.send_wq_depth;
  cap.max_recv_wr = w.recv_wq_depth;
  cap.max_send_sge = std::max(w.sge_per_wqe, 1);
  cap.max_recv_sge = std::max(w.sge_per_wqe, 1);
  for (int i = 0; i < qps; ++i) {
    verbs::Qp* qp =
        h.ctx->create_qp(h.pd, h.cq, h.cq, to_verbs(w.qp_type), cap);
    if (qp == nullptr) {
      *error = "create_qp failed";
      return false;
    }
    h.qps.push_back(qp);
  }
  return true;
}

}  // namespace

Engine::Engine(const sim::Subsystem& sys, EngineOptions opts)
    : sys_(sys), opts_(std::move(opts)) {
  if (opts_.backend_factory != nullptr) {
    backend_ =
        opts_.backend_factory->create(sys_, opts_, opts_.backend_context);
  } else {
    backend_ = std::make_unique<SimBackend>(sys_, opts_);
  }
  if (backend_->kind() == BackendKind::kSim) {
    sim_ = static_cast<SimBackend*>(backend_.get());
  }
  if (opts_.telemetry.enabled()) {
    backend_probes_ = opts_.telemetry.telemetry()->registry().counter(
        std::string("engine.backend.") + to_string(backend_->kind()));
  }
}

Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

bool Engine::validate_functional(const Workload& w, std::string* error) const {
  std::string local_err;
  std::string* err = error != nullptr ? error : &local_err;
  std::string why;
  if (!w.valid(&why)) {
    *err = "invalid workload: " + why;
    return false;
  }

  verbs::Network net;
  const int n_qps = std::min(w.num_qps, kFunctionalMaxQps);
  const int n_mrs = std::min(w.mrs_per_qp, kFunctionalMaxMrs);
  HostState a;
  HostState b;
  if (!setup_host(a, net, w, n_qps, n_mrs, err)) return false;
  if (!setup_host(b, net, w, n_qps, n_mrs, err)) return false;

  // Connection setup (the real engine does this over out-of-band TCP, §6).
  for (int i = 0; i < n_qps; ++i) {
    if (w.qp_type == QpType::kUD) {
      for (verbs::Qp* qp : {a.qps[static_cast<std::size_t>(i)],
                            b.qps[static_cast<std::size_t>(i)]}) {
        verbs::QpAttr at;
        at.mtu = w.mtu;
        at.state = verbs::QpState::kInit;
        if (!qp->modify(at)) return (*err = "modify INIT failed", false);
        at.state = verbs::QpState::kRtr;
        if (!qp->modify(at)) return (*err = "modify RTR failed", false);
        at.state = verbs::QpState::kRts;
        if (!qp->modify(at)) return (*err = "modify RTS failed", false);
      }
    } else if (!verbs::connect_pair(a.qps[static_cast<std::size_t>(i)],
                                    b.qps[static_cast<std::size_t>(i)],
                                    w.mtu)) {
      *err = "connect_pair failed";
      return false;
    }
  }

  // Pre-post receive WQEs (SEND/RECV needs them; Dimension 3's WQ depth).
  const int wqes = w.wqes_per_round();
  if (w.opcode == Opcode::kSend) {
    for (HostState* h : {&b, &a}) {
      for (int qi = 0; qi < n_qps; ++qi) {
        std::vector<verbs::RecvWr> rwrs;
        const verbs::Mr* mr = h->mrs[static_cast<std::size_t>(
            (qi * n_mrs) % std::max(1, static_cast<int>(h->mrs.size())))];
        for (int i = 0; i < std::min(w.recv_wq_depth, 2 * wqes); ++i) {
          verbs::RecvWr r;
          r.wr_id = 1000 + static_cast<u64>(i);
          r.sg_list.push_back(
              {mr->addr(), static_cast<u32>(mr->length()), mr->lkey()});
          rwrs.push_back(std::move(r));
        }
        if (!h->qps[static_cast<std::size_t>(qi)]->post_recv(rwrs, err)) {
          return false;
        }
      }
    }
  }

  // Post one full pattern round from host A on QP 0, honouring the WQE
  // batching strategy, then drive the fabric and verify the data landed.
  verbs::Qp* qp = a.qps[0];
  verbs::Mr* lmr = a.mrs[0];
  verbs::Mr* rmr = b.mrs[0];
  // Fill the send buffer with a recognizable pattern.
  for (u64 i = 0; i < w.mr_size; ++i) {
    a.buffers[0][i] = static_cast<u8>(i * 131 + 7);
  }

  std::vector<verbs::SendWr> batch;
  int posted = 0;
  u64 local_off = 0;
  u64 remote_off = 0;
  // Source/remote layout of the last WQE, for data verification below.
  u64 last_remote_off = 0;
  std::vector<std::pair<u64, u64>> last_segments;  // (local_off, len)
  for (int m = 0; m < wqes; ++m) {
    verbs::SendWr wr;
    wr.wr_id = static_cast<u64>(m);
    wr.opcode = to_verbs(w.opcode);
    wr.rkey = rmr->rkey();
    wr.remote_qpn = b.qps[0]->qp_num();
    const u64 msg = w.message_bytes(m);
    if (remote_off + msg > w.mr_size) remote_off = 0;
    wr.remote_addr = rmr->addr() + remote_off;
    last_remote_off = remote_off;
    last_segments.clear();
    const int begin = m * w.sge_per_wqe;
    for (int s = begin;
         s < begin + w.sge_per_wqe && s < static_cast<int>(w.pattern.size());
         ++s) {
      const u64 len = w.pattern[static_cast<std::size_t>(s)];
      if (local_off + len > w.mr_size) local_off = 0;
      wr.sg_list.push_back(
          {lmr->addr() + local_off, static_cast<u32>(len), lmr->lkey()});
      last_segments.emplace_back(local_off, len);
      local_off += len;
    }
    remote_off += msg;
    batch.push_back(std::move(wr));
    if (static_cast<int>(batch.size()) >= w.wqe_batch || m == wqes - 1) {
      if (static_cast<int>(batch.size()) + qp->send_queue_depth() >
          w.send_wq_depth) {
        net.progress();  // drain before re-arming, like a real sender
      }
      if (!qp->post_send(batch, err)) return false;
      posted += static_cast<int>(batch.size());
      batch.clear();
    }
  }
  net.progress();

  // Collect completions and verify success.
  verbs::Wc wc[64];
  int completed = 0;
  int drained;
  while ((drained = a.cq->poll(wc, 64)) > 0) {
    for (int i = 0; i < drained; ++i) {
      if (wc[i].status != verbs::WcStatus::kSuccess) {
        *err = std::string("completion error: ") + to_string(wc[i].status);
        return false;
      }
      ++completed;
    }
  }
  if (completed != posted) {
    *err = "missing completions";
    return false;
  }

  // For WRITE, check that the last WQE's gathered bytes landed where its
  // remote address says (earlier WQEs may have been partially overwritten
  // by the wrap-around layout, so the last one is the stable witness).
  if (w.opcode == Opcode::kWrite) {
    u64 roff = last_remote_off;
    for (const auto& [loff, len] : last_segments) {
      if (std::memcmp(b.buffers[0].data() + roff,
                      a.buffers[0].data() + loff, len) != 0) {
        *err = "data mismatch after WRITE";
        return false;
      }
      roff += len;
    }
  }
  return true;
}

Measurement Engine::run(const Workload& w, Rng& rng) const {
  sim::EvalScratch scratch;
  return run(w, rng, scratch);
}

Measurement Engine::run(const Workload& w, Rng& rng,
                        sim::EvalScratch& scratch) const {
  Measurement m;
  run(w, rng, scratch, m);
  return m;
}

const Measurement& Engine::run(const Workload& w, Rng& rng,
                               sim::EvalScratch& scratch, Measurement& m,
                               const sim::EvalRequest& request) const {
  // Field-wise reset instead of `m = Measurement{}`: keeps the samples
  // vector's capacity and the note string's buffer, which is what makes the
  // reused-Measurement probe path allocation-free.
  m.request = request;
  m.samples.clear();
  m.average = sim::CounterSample{};
  m.pause_duration_ratio = 0.0;
  m.fabric_pause_ratio = 0.0;
  m.cc_suppressed_ratio = 0.0;
  m.wire_utilization = 0.0;
  m.pps_utilization = 0.0;
  m.rx_goodput_bps = 0.0;
  m.stable = false;
  m.remeasure_count = 0;
  m.cost_seconds = sim::experiment_cost_seconds(w);
  m.dominant = sim::Bottleneck::kNone;
  m.bottleneck_note.clear();

  // The measurement runs on the backend.  The sim fast path is a direct
  // call on the final class (sim_ is non-null exactly when the backend is
  // SimBackend).
  if (sim_ != nullptr) {
    sim_->measure(w, rng, scratch, m);
  } else {
    backend_->measure(w, rng, scratch, m);
  }
  if (opts_.telemetry.enabled()) {
    opts_.telemetry.add(backend_probes_);
  }
  return m;
}

}  // namespace collie::workload
