// Node topology: how ranks pack onto SMP nodes.
//
// The paper's hybrid analysis hinges on which rank pairs share a node's
// memory system and which must cross the interconnect.  The in-process
// runtime runs every rank inside one address space, so "node" is a model
// parameter rather than a physical fact: a NodeMap assigns ranks to nodes
// in contiguous groups of ranks_per_node (the same packing rule
// CostModel::split_traffic applies to the traffic matrices), and the halo
// exchanger consults it per edge to decide between the zero-copy
// shared-window path (same node) and the wire path (different nodes).
#pragma once

namespace hdem::mp {

class NodeMap {
 public:
  // ranks_per_node <= 0 places every rank on one node (the physical truth
  // of the in-process runtime, and the default of --ranks-per-node).
  NodeMap() = default;
  explicit NodeMap(int ranks_per_node) : rpn_(ranks_per_node) {}

  int ranks_per_node() const { return rpn_; }
  int node_of(int rank) const { return rpn_ <= 0 ? 0 : rank / rpn_; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

 private:
  int rpn_ = 0;
};

}  // namespace hdem::mp
