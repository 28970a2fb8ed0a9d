#include "cli/options.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace qp::cli {
namespace {

TEST(ParseArgs, CommandAndFlagForms) {
  const ParsedArgs args =
      parse_args({"solve", "--system=grid", "--k", "3", "--dot"});
  EXPECT_EQ(args.command(), "solve");
  EXPECT_EQ(args.get("system", ""), "grid");
  EXPECT_EQ(args.get_int("k", 0), 3);
  EXPECT_TRUE(args.has("dot"));
  EXPECT_EQ(args.get("dot", ""), "true");
}

TEST(ParseArgs, RejectsMissingCommand) {
  EXPECT_THROW(parse_args({}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--system=grid"}), std::invalid_argument);
}

TEST(ParseArgs, RejectsBareValues) {
  EXPECT_THROW(parse_args({"solve", "grid"}), std::invalid_argument);
}

TEST(ParseArgs, TypedAccessorsValidate) {
  const ParsedArgs args = parse_args({"x", "--n=abc", "--p=0.5"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(ParseArgs, RequireThrowsWhenAbsent) {
  const ParsedArgs args = parse_args({"x", "--a=1"});
  EXPECT_EQ(args.require("a"), "1");
  EXPECT_THROW(args.require("b"), std::invalid_argument);
}

TEST(ParseArgs, UnreadFlagsTracked) {
  const ParsedArgs args = parse_args({"x", "--a=1", "--typo=2"});
  (void)args.get("a", "");
  const auto unread = args.unread_flags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(MakeSystem, BuildsEachKind) {
  EXPECT_EQ(make_system(parse_args({"x", "--system=grid", "--k=2"}))
                .universe_size(),
            4);
  EXPECT_EQ(make_system(parse_args({"x", "--system=majority", "--n=5"}))
                .num_quorums(),
            10);
  EXPECT_EQ(make_system(parse_args({"x", "--system=fpp", "--q=2"}))
                .universe_size(),
            7);
  EXPECT_EQ(make_system(parse_args({"x", "--system=tree", "--height=1"}))
                .universe_size(),
            3);
  EXPECT_EQ(
      make_system(parse_args({"x", "--system=wall", "--widths=1,2"}))
          .universe_size(),
      3);
  EXPECT_EQ(make_system(parse_args({"x", "--system=star", "--n=4"}))
                .num_quorums(),
            3);
  EXPECT_EQ(make_system(parse_args({"x", "--system=singleton"}))
                .universe_size(),
            1);
  EXPECT_THROW(make_system(parse_args({"x", "--system=bogus"})),
               std::invalid_argument);
}

TEST(MakeTopology, BuildsEachKind) {
  std::mt19937_64 rng(1);
  EXPECT_EQ(make_topology(parse_args({"x", "--topology=path", "--nodes=5"}),
                          rng)
                .num_nodes(),
            5);
  EXPECT_EQ(make_topology(parse_args({"x", "--topology=mesh", "--k=3"}), rng)
                .num_nodes(),
            9);
  EXPECT_EQ(
      make_topology(parse_args({"x", "--topology=hypercube", "--dim=3"}), rng)
          .num_nodes(),
      8);
  EXPECT_TRUE(
      make_topology(parse_args({"x", "--topology=waxman", "--nodes=15"}), rng)
          .is_connected());
  EXPECT_TRUE(make_topology(
                  parse_args({"x", "--topology=cliques", "--cliques=3",
                              "--clique-size=3"}),
                  rng)
                  .is_connected());
  EXPECT_THROW(make_topology(parse_args({"x", "--topology=bogus"}), rng),
               std::invalid_argument);
}

TEST(MakeTopology, LoadsGraphFile) {
  const std::string path = ::testing::TempDir() + "qplace_cli_graph.txt";
  {
    std::ofstream out(path);
    out << "n 3\ne 0 1 1.0\ne 1 2 2.0\n";
  }
  std::mt19937_64 rng(1);
  const graph::Graph g =
      make_topology(parse_args({"x", "--graph-file", path}), rng);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  std::remove(path.c_str());
}

TEST(MakeTopology, DefaultIsConnectedGeometric) {
  std::mt19937_64 rng(2);
  const graph::Graph g = make_topology(parse_args({"x"}), rng);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_TRUE(g.is_connected());
}

// topology_nodes sizes each topology from the flags alone, as make_topology
// then builds it.
TEST(SizeGuard, TopologyNodesMatchTheBuiltGraph) {
  const std::vector<std::vector<std::string>> flag_sets = {
      {"x"},
      {"x", "--topology=path", "--nodes=7"},
      {"x", "--topology=cycle", "--nodes=7"},
      {"x", "--topology=star", "--nodes=7"},
      {"x", "--topology=complete", "--nodes=7"},
      {"x", "--topology=mesh", "--k=3"},
      {"x", "--topology=broom", "--k=3"},
      {"x", "--topology=hypercube", "--dim=3"},
      {"x", "--topology=torus", "--k=3"},
      {"x", "--topology=fattree", "--spines=2", "--leaves=3", "--hosts=2"},
      {"x", "--topology=geometric", "--nodes=9"},
      {"x", "--topology=erdos-renyi", "--nodes=9"},
      {"x", "--topology=tree", "--nodes=9"},
      {"x", "--topology=ba", "--nodes=9"},
      {"x", "--topology=waxman", "--nodes=9"},
      {"x", "--topology=cliques", "--cliques=3", "--clique-size=2"}};
  for (const auto& flags : flag_sets) {
    SCOPED_TRACE(flags.back());
    const ParsedArgs args = parse_args(flags);
    std::mt19937_64 rng(1);
    EXPECT_EQ(topology_nodes(args), make_topology(args, rng).num_nodes());
  }
  EXPECT_FALSE(
      topology_nodes(parse_args({"x", "--graph-file", "g.txt"})).has_value());
}

TEST(SizeGuard, RefusesOverTheBudgetOnly) {
  EXPECT_EQ(metric_bytes(1000), 8.0e6);
  // grid(5) at n = 4096: 4121 rows by 102400 + 4121 columns.
  EXPECT_EQ(gap_tableau_bytes(4096, 25), 8.0 * 4121 * (102400 + 4121));
  // The largest metric that fits is 16384 nodes: exactly 2 GiB.
  EXPECT_NO_THROW(require_instance_fits(16384, 9, false));
  EXPECT_THROW(require_instance_fits(16385, 9, false), std::length_error);
  EXPECT_NO_THROW(require_instance_fits(4096, 25, false));
  try {
    require_instance_fits(4096, 25, true);
    ADD_FAILURE() << "a 3.3 GiB GAP tableau fits a 2 GiB budget";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("4096 nodes and 25 elements"),
              std::string::npos);
  }
  EXPECT_NO_THROW(require_instance_fits(512, 25, true));
}

}  // namespace
}  // namespace qp::cli
