#include "msr/graph.hpp"

#include <map>

#include "msr/resolve.hpp"

namespace hpm::msr {

MsrGraph MsrGraph::snapshot(const MemorySpace& space) {
  MsrGraph g;
  const ti::LeafIndex& leaves = space.leaves();
  const ti::LayoutMap& layouts = space.layouts();

  space.msrlt().for_each_block([&](const MemoryBlock& block) {
    GraphNode node;
    node.id = block.id;
    node.segment = block.segment;
    node.name = space.msrlt().name_of(block);
    node.type = space.types().spell(block.type);
    node.count = block.count;
    node.size = block.size;
    g.nodes_.push_back(std::move(node));

    if (!space.types().contains_pointer(block.type)) return;
    const std::uint64_t elem_size = layouts.of(block.type).size;
    const std::uint64_t per_elem = leaves.count(block.type);
    for (std::uint32_t e = 0; e < block.count; ++e) {
      std::uint64_t ordinal_base = e * per_elem;
      std::uint64_t seen = 0;
      ti::for_each_leaf(leaves, layouts, block.type, [&](const ti::LeafRef& ref) {
        const std::uint64_t ordinal = ordinal_base + seen;
        ++seen;
        if (!ref.is_pointer) return;
        const Address cell = block.base + e * elem_size + ref.byte_offset;
        const Address value = space.read_pointer(cell);
        if (value == 0) return;
        const LogicalPointer lp = resolve_pointer(space, value);
        g.edges_.push_back(GraphEdge{block.id, ordinal, lp.block, lp.leaf});
      });
    }
  });
  return g;
}

std::set<BlockId> MsrGraph::reachable_from(const std::vector<BlockId>& roots) const {
  std::multimap<BlockId, BlockId> adj;
  for (const GraphEdge& e : edges_) adj.emplace(e.from, e.to);
  std::set<BlockId> seen;
  std::vector<BlockId> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const BlockId id = stack.back();
    stack.pop_back();
    if (!seen.insert(id).second) continue;
    auto [lo, hi] = adj.equal_range(id);
    for (auto it = lo; it != hi; ++it) stack.push_back(it->second);
  }
  return seen;
}

std::string MsrGraph::to_dot() const {
  std::string out = "digraph msr {\n  rankdir=LR;\n  node [shape=record];\n";
  const char* cluster_names[3] = {"Global Data Segment", "Stack Data Segment",
                                  "Heap Data Segment"};
  for (int seg = 0; seg < 3; ++seg) {
    out += "  subgraph cluster_" + std::to_string(seg) + " {\n    label=\"" +
           cluster_names[seg] + "\";\n";
    for (const GraphNode& n : nodes_) {
      if (static_cast<int>(n.segment) != seg) continue;
      out += "    b" + std::to_string(n.id) + " [label=\"" +
             (n.name.empty() ? ("#" + std::to_string(block_seq(n.id))) : n.name) + "\\n" +
             n.type + (n.count > 1 ? "[" + std::to_string(n.count) + "]" : "") + "\"];\n";
    }
    out += "  }\n";
  }
  for (const GraphEdge& e : edges_) {
    out += "  b" + std::to_string(e.from) + " -> b" + std::to_string(e.to) + " [label=\"" +
           std::to_string(e.from_leaf) + "->" + std::to_string(e.to_leaf) + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace hpm::msr
