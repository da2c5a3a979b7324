#include "ib/fabric.hpp"

#include <stdexcept>
#include <utility>

#include "ib/fault.hpp"

namespace ib12x::ib {

Fabric::Fabric(sim::Simulator& sim, HcaParams hca_params, FabricParams fabric_params,
               TopologySpec topo_spec)
    : sim_(sim), hca_params_(hca_params), fabric_params_(fabric_params),
      topology_(std::make_unique<Topology>(topo_spec, fabric_params)) {}

Fabric::~Fabric() = default;

void Fabric::attach_fault(std::unique_ptr<FaultPlan> plan) { fault_ = std::move(plan); }

Hca& Fabric::add_hca(int node) {
  hcas_.push_back(std::unique_ptr<Hca>(new Hca(*this, node, hca_params_)));
  Hca& hca = *hcas_.back();
  // Every port gets the next LID in attach order; the topology's host-port
  // enumeration follows the same order, so LID assignment is just a counter.
  for (int p = 0; p < hca.port_count(); ++p) {
    hca.port(p).set_lid(topology_->attach_host());
  }
  return hca;
}

void Fabric::connect(QueuePair& a, QueuePair& b) {
  if (a.connected() || b.connected()) {
    throw std::logic_error("Fabric::connect: QP already connected");
  }
  if (&a == &b) throw std::logic_error("Fabric::connect: cannot self-connect a QP");
  a.peer_ = &b;
  b.peer_ = &a;
}

}  // namespace ib12x::ib
