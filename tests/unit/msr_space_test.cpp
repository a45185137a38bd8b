// HostSpace + logical pointer resolution (resolve_pointer / address_of)
// + MSR graph snapshots.
#include <gtest/gtest.h>

#include "msr/graph.hpp"
#include "msr/host_space.hpp"
#include "msr/resolve.hpp"
#include "ti/describe.hpp"

namespace hpm::msr {
namespace {

struct Node {
  float data;
  Node* link;
};

class HostSpaceTest : public ::testing::Test {
 protected:
  HostSpaceTest() : space_(table_) {
    ti::StructBuilder<Node> b(table_, "node");
    HPM_TI_FIELD(b, Node, data);
    HPM_TI_FIELD(b, Node, link);
    node_type_ = b.commit();
  }
  ti::TypeTable table_;
  HostSpace space_;
  ti::TypeId node_type_ = ti::kInvalidType;
};

TEST_F(HostSpaceTest, ReadWritePrimThroughRawMemory) {
  double d = 0;
  const Address addr = reinterpret_cast<Address>(&d);
  space_.write_prim(addr, xdr::PrimKind::Double,
                    xdr::PrimValue::of_float(xdr::PrimKind::Double, -2.75));
  EXPECT_EQ(d, -2.75);
  EXPECT_EQ(space_.read_prim(addr, xdr::PrimKind::Double).f, -2.75);
}

TEST_F(HostSpaceTest, ReadWritePointerCells) {
  int target = 0;
  int* cell = nullptr;
  space_.write_pointer(reinterpret_cast<Address>(&cell), reinterpret_cast<Address>(&target));
  EXPECT_EQ(cell, &target);
  EXPECT_EQ(space_.read_pointer(reinterpret_cast<Address>(&cell)),
            reinterpret_cast<Address>(&target));
}

TEST_F(HostSpaceTest, ResolveAndAddressOfAreInverse) {
  Node nodes[4] = {};
  const BlockId id = space_.track(Segment::Stack, nodes, "nodes", node_type_, 4);
  // Element 2's link cell:
  const Address cell = reinterpret_cast<Address>(&nodes[2].link);
  const LogicalPointer lp = resolve_pointer(space_, cell);
  EXPECT_EQ(lp.block, id);
  EXPECT_EQ(lp.leaf, 2 * 2 + 1u);
  EXPECT_EQ(address_of(space_, lp), cell);
}

TEST_F(HostSpaceTest, UntrackedPointerIsAHardError) {
  int stray = 0;
  EXPECT_THROW(resolve_pointer(space_, reinterpret_cast<Address>(&stray)), MsrError);
  EXPECT_THROW(address_of(space_, LogicalPointer{make_block_id(Segment::Heap, 5), 0}),
               MsrError);
}

TEST_F(HostSpaceTest, AddressOfBeyondBlockEndThrows) {
  Node n{};
  const BlockId id = space_.track(Segment::Stack, n, "n", node_type_, 1);
  EXPECT_THROW(address_of(space_, LogicalPointer{id, 2}), Error);
}

TEST_F(HostSpaceTest, NewBlocksAreOwnedAndTrackedOnesAreNot) {
  // The owned bit of the MSRLT entry is the space's only record of its
  // allocations: the destructor frees exactly the owned blocks still
  // tracked (LeakSanitizer checks the asan build), never tracked ones.
  Node local{};
  const BlockId tracked = space_.track(Segment::Heap, local, "local", node_type_, 1);
  EXPECT_FALSE(space_.msrlt().find_id(tracked)->owned);
  const MemoryBlock& fresh = space_.new_block(Segment::Heap, node_type_, 3, "fresh");
  EXPECT_TRUE(fresh.owned);
  EXPECT_NE(fresh.base, 0u);
  EXPECT_EQ(fresh.size, 3 * sizeof(Node));
  EXPECT_EQ(space_.msrlt().block_count(Segment::Heap), 2u);

  // An owner that drops a block early unregisters it and deallocates.
  const MemoryBlock& early = space_.new_block(Segment::Global, node_type_, 1);
  const Address base = early.base;
  space_.msrlt().unregister(base);
  space_.deallocate(base);
  EXPECT_EQ(space_.msrlt().block_count(Segment::Global), 0u);
}

TEST_F(HostSpaceTest, NewBlockFreesStorageWhoseRegistrationThrows) {
  // Zero elements: allocate() hands out storage, registration rejects the
  // zero-sized block, and new_block must release what it allocated.
  EXPECT_THROW(space_.new_block(Segment::Heap, node_type_, 0), MsrError);
  EXPECT_EQ(space_.msrlt().block_count(), 0u);
}

TEST_F(HostSpaceTest, GraphSnapshotCapturesEdgesAndSharing) {
  Node a{1.0f, nullptr}, b{2.0f, nullptr}, c{3.0f, nullptr};
  a.link = &b;
  b.link = &c;
  c.link = &a;  // cycle
  const BlockId ia = space_.track(Segment::Global, a, "a", node_type_, 1);
  const BlockId ib = space_.track(Segment::Heap, b, "b", node_type_, 1);
  const BlockId ic = space_.track(Segment::Heap, c, "c", node_type_, 1);
  const MsrGraph g = MsrGraph::snapshot(space_);
  EXPECT_EQ(g.nodes().size(), 3u);
  EXPECT_EQ(g.edges().size(), 3u);
  const auto reach = g.reachable_from({ia});
  EXPECT_EQ(reach.size(), 3u);
  const auto reach_c = g.reachable_from({ic});
  EXPECT_TRUE(reach_c.count(ia) == 1);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("Heap Data Segment"), std::string::npos);
  EXPECT_NE(dot.find("Global Data Segment"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  (void)ib;
}

TEST_F(HostSpaceTest, GraphSnapshotFlagsDanglingPointers) {
  Node tracked{1.0f, nullptr};
  Node untracked{2.0f, nullptr};
  tracked.link = &untracked;
  space_.track(Segment::Global, tracked, "t", node_type_, 1);
  EXPECT_THROW(MsrGraph::snapshot(space_), MsrError);
}

TEST_F(HostSpaceTest, ReachabilityIgnoresUnconnectedIslands) {
  Node a{1.0f, nullptr}, island{9.0f, nullptr};
  const BlockId ia = space_.track(Segment::Global, a, "a", node_type_, 1);
  const BlockId ii = space_.track(Segment::Heap, island, "island", node_type_, 1);
  const MsrGraph g = MsrGraph::snapshot(space_);
  const auto reach = g.reachable_from({ia});
  EXPECT_EQ(reach.count(ii), 0u);
  EXPECT_EQ(reach.size(), 1u);
}

}  // namespace
}  // namespace hpm::msr
