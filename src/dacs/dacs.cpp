#include "dacs/dacs.hpp"

#include "util/expect.hpp"

namespace rr::dacs {

ElementKind Element::kind() const {
  return id_.v == 0 ? ElementKind::kHostElement : ElementKind::kAcceleratorElement;
}

DacsRuntime::DacsRuntime(comm::SimNetwork& net)
    : net_(&net),
      ops_(std::make_unique<sim::TaskRegistry>(net.simulator())),
      barrier_event_(std::make_shared<sim::Event>(net.simulator())) {}

Element DacsRuntime::element(DeId id) {
  RR_EXPECTS(id.v >= 0 && id.v < num_elements());
  return Element(*this, id);
}

Element DacsRuntime::accelerator(int i) {
  RR_EXPECTS(i >= 0 && i < net_->config().cells_per_node);
  return element(DeId{i + 1});
}

std::size_t DacsRuntime::run(std::vector<sim::Task<void>> programs) {
  sim::TaskRegistry reg(simulator());
  for (auto& t : programs) reg.spawn(std::move(t));
  return reg.drain();
}

sim::Task<void> DacsRuntime::crossing(DeId a, DeId b, DataSize bytes) {
  // DaCS is strictly parent-child: one endpoint must be the HE.  (On
  // Roadrunner the PPEs are not directly connected -- Section IV.C.)
  RR_EXPECTS(a.v == 0 || b.v == 0);
  RR_EXPECTS(a.v != b.v);
  const int ae = a.v == 0 ? b.v : a.v;
  return net_->dacs_transfer(0, ae - 1, bytes);
}

Wid DacsRuntime::new_wid() {
  const Wid wid{next_wid_++};
  Pending p;
  p.done = std::make_unique<sim::Event>(simulator());
  pending_.emplace(wid.v, std::move(p));
  return wid;
}

DacsRuntime::Pending& DacsRuntime::pending(Wid wid) {
  const auto it = pending_.find(wid.v);
  RR_EXPECTS(it != pending_.end());
  return it->second;
}
const DacsRuntime::Pending& DacsRuntime::pending(Wid wid) const {
  const auto it = pending_.find(wid.v);
  RR_EXPECTS(it != pending_.end());
  return it->second;
}

// ---------------------------------------------------------------------------
// Element: two-sided messaging
// ---------------------------------------------------------------------------

void DacsRuntime::start_transfer(DeId src, DeId dst, std::vector<double> data,
                                 Wid send_wid, Wid recv_wid) {
  auto op = [](DacsRuntime* rt, DeId s, DeId d, std::vector<double> payload,
               Wid sw, Wid rw) -> sim::Task<void> {
    co_await rt->crossing(s, d, comm::message_bytes(payload.size()));
    rt->pending(rw).payload = std::move(payload);
    rt->pending(sw).done->set();
    rt->pending(rw).done->set();
  };
  ops_->spawn(op(this, src, dst, std::move(data), send_wid, recv_wid));
}

void DacsRuntime::start_put(DeId src, const RemoteMem& mem, std::size_t offset,
                            std::vector<double> data, Wid wid) {
  auto op = [](DacsRuntime* rt, DeId s, RemoteMem m, std::size_t off,
               std::vector<double> payload, Wid w) -> sim::Task<void> {
    if (s != m.owner)
      co_await rt->crossing(s, m.owner, comm::message_bytes(payload.size()));
    auto& region = rt->regions_.at(m.handle).data;
    std::copy(payload.begin(), payload.end(),
              region.begin() + static_cast<std::ptrdiff_t>(off));
    rt->pending(w).done->set();
  };
  ops_->spawn(op(this, src, mem, offset, std::move(data), wid));
}

void DacsRuntime::start_get(DeId dst, const RemoteMem& mem, std::size_t offset,
                            std::size_t count, Wid wid) {
  auto op = [](DacsRuntime* rt, DeId d, RemoteMem m, std::size_t off,
               std::size_t n, Wid w) -> sim::Task<void> {
    if (d != m.owner) co_await rt->crossing(m.owner, d, comm::message_bytes(n));
    const auto& region = rt->regions_.at(m.handle).data;
    rt->pending(w).payload.assign(
        region.begin() + static_cast<std::ptrdiff_t>(off),
        region.begin() + static_cast<std::ptrdiff_t>(off + n));
    rt->pending(w).done->set();
  };
  ops_->spawn(op(this, dst, mem, offset, count, wid));
}

Wid Element::send(DeId dst, int stream, std::vector<double> data) {
  DacsRuntime& rt = *rt_;
  const Wid wid = rt.new_wid();
  const DacsRuntime::MatchKey key{id_.v, dst.v, stream};
  auto& recvs = rt.posted_recvs_[key];
  if (!recvs.empty()) {
    const std::uint64_t rwid = recvs.front();
    recvs.pop_front();
    rt.start_transfer(id_, dst, std::move(data), wid, Wid{rwid});
  } else {
    rt.posted_sends_[key].push_back(wid.v);
    rt.send_payloads_.emplace(wid.v, std::move(data));
  }
  return wid;
}

Wid Element::recv(DeId src, int stream) {
  DacsRuntime& rt = *rt_;
  const Wid wid = rt.new_wid();
  const DacsRuntime::MatchKey key{src.v, id_.v, stream};
  auto& sends = rt.posted_sends_[key];
  if (!sends.empty()) {
    const std::uint64_t swid = sends.front();
    sends.pop_front();
    auto payload_it = rt.send_payloads_.find(swid);
    RR_ASSERT(payload_it != rt.send_payloads_.end());
    std::vector<double> data = std::move(payload_it->second);
    rt.send_payloads_.erase(payload_it);
    rt.start_transfer(src, id_, std::move(data), Wid{swid}, wid);
  } else {
    rt.posted_recvs_[key].push_back(wid.v);
  }
  return wid;
}

bool Element::test(Wid wid) const { return rt_->pending(wid).done->is_set(); }

sim::Task<void> Element::wait(Wid wid) {
  co_await rt_->pending(wid).done->wait();
}

std::vector<double> Element::take_received(Wid wid) {
  DacsRuntime::Pending& p = rt_->pending(wid);
  RR_EXPECTS(p.done->is_set());
  return std::move(p.payload);
}

// ---------------------------------------------------------------------------
// Element: one-sided remote memory
// ---------------------------------------------------------------------------

RemoteMem Element::create_remote_mem(std::size_t size) {
  RR_EXPECTS(size > 0);
  DacsRuntime& rt = *rt_;
  const std::uint64_t handle = rt.next_region_++;
  rt.regions_[handle].data.assign(size, 0.0);
  return RemoteMem{id_, handle, size};
}

Wid Element::put(const RemoteMem& mem, std::size_t offset, std::vector<double> data) {
  DacsRuntime& rt = *rt_;
  RR_EXPECTS(offset + data.size() <= mem.size);
  const Wid wid = rt.new_wid();
  rt.start_put(id_, mem, offset, std::move(data), wid);
  return wid;
}

Wid Element::get(const RemoteMem& mem, std::size_t offset, std::size_t count) {
  DacsRuntime& rt = *rt_;
  RR_EXPECTS(offset + count <= mem.size);
  const Wid wid = rt.new_wid();
  rt.start_get(id_, mem, offset, count, wid);
  return wid;
}

double Element::mem_at(const RemoteMem& mem, std::size_t offset) const {
  const auto it = rt_->regions_.find(mem.handle);
  RR_EXPECTS(it != rt_->regions_.end());
  RR_EXPECTS(offset < it->second.data.size());
  return it->second.data[offset];
}

// ---------------------------------------------------------------------------
// Element: barrier
// ---------------------------------------------------------------------------

sim::Task<void> Element::barrier() {
  DacsRuntime& rt = *rt_;
  // AEs notify the HE over their link (one crossing each way).
  if (kind() == ElementKind::kAcceleratorElement)
    co_await rt.crossing(id_, DeId{0}, DataSize::bytes(64));
  // Hold a reference to THIS generation's event: the last arrival swaps
  // in a fresh event for the next generation before releasing this one.
  std::shared_ptr<sim::Event> ev = rt.barrier_event_;
  if (++rt.barrier_arrived_ == rt.num_elements()) {
    rt.barrier_arrived_ = 0;
    ++rt.barrier_generation_;
    rt.barrier_event_ = std::make_shared<sim::Event>(rt.simulator());
    ev->set();
  }
  co_await ev->wait();
  if (kind() == ElementKind::kAcceleratorElement)
    co_await rt.crossing(DeId{0}, id_, DataSize::bytes(64));
}

}  // namespace rr::dacs
