#include "ctrl/config_gen.h"

#include <gtest/gtest.h>

#include <string>

#include "topo/builders.h"

namespace spineless::ctrl {
namespace {

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(ConfigGen, DefinesKVrfsAndBgpProcess) {
  const auto d = topo::make_dring(5, 2, 4);
  ConfigGenOptions opts;
  opts.k = 2;
  const auto cfg = router_config(d.graph, 0, opts);
  EXPECT_NE(cfg.find("hostname r0"), std::string::npos);
  EXPECT_NE(cfg.find("vrf definition VRF1"), std::string::npos);
  EXPECT_NE(cfg.find("vrf definition VRF2"), std::string::npos);
  EXPECT_EQ(cfg.find("vrf definition VRF3"), std::string::npos);
  EXPECT_NE(cfg.find("router bgp 64512"), std::string::npos);
  EXPECT_NE(cfg.find("maximum-paths 32"), std::string::npos);
}

TEST(ConfigGen, HostInterfaceLivesInVrfK) {
  const auto d = topo::make_dring(5, 2, 4);
  const auto cfg = router_config(d.graph, 3, ConfigGenOptions{});
  const auto host_if = cfg.find("GigabitEthernet0/0");
  ASSERT_NE(host_if, std::string::npos);
  // The vrf line for the host interface names VRF2 (= K).
  EXPECT_NE(cfg.find("vrf forwarding VRF2", host_if), std::string::npos);
  // Its rack subnet is announced in the VRF-K address family.
  EXPECT_NE(cfg.find("network 10.128.3.0 mask"), std::string::npos);
}

TEST(ConfigGen, SpinesGetNoHostInterface) {
  const auto g = topo::make_leaf_spine(3, 1);
  const topo::NodeId spine = topo::leaf_spine_num_leaves(3, 1);
  const auto cfg = router_config(g, spine, ConfigGenOptions{});
  EXPECT_EQ(cfg.find("GigabitEthernet0/0\n"), std::string::npos);
  EXPECT_EQ(cfg.find("network 10."), std::string::npos);
}

TEST(ConfigGen, SessionCountMatchesGadget) {
  // Per physical link: 2 directions x (K rule-1 + (K-1) rule-2 + 1 rule-3)
  // sessions; each session = one neighbor statement pair (activate too).
  const auto d = topo::make_dring(5, 1, 2);  // every router: 4 links
  ConfigGenOptions opts;
  opts.k = 2;
  const auto cfg = router_config(d.graph, 0, opts);
  // Router 0 participates in every session of its 4 links, on one side:
  // 4 links x 8 sessions = 32 'neighbor ... remote-as' lines.
  EXPECT_EQ(count_occurrences(cfg, " remote-as "), 32);
  // Each session got a dot1q subinterface on our side.
  EXPECT_EQ(count_occurrences(cfg, "encapsulation dot1Q"), 32);
}

TEST(ConfigGen, PrependRouteMapsMatchCosts) {
  const auto d = topo::make_dring(5, 1, 2);
  ConfigGenOptions opts;
  opts.k = 3;
  const auto cfg = router_config(d.graph, 2, opts);
  // Cost-2 and cost-3 maps exist; cost-1 advertisements use none.
  EXPECT_NE(cfg.find("route-map PREPEND_2 permit 10"), std::string::npos);
  EXPECT_NE(cfg.find("route-map PREPEND_3 permit 10"), std::string::npos);
  // PREPEND_3 prepends the AS twice (eBGP adds the third).
  EXPECT_NE(cfg.find("route-map PREPEND_3 permit 10\n"
                     " set as-path prepend 64514 64514\n"),
            std::string::npos);
}

TEST(ConfigGen, PeerAddressesPairUpAcrossRouters) {
  // The /31 a-side and b-side of every session must appear once in each
  // endpoint's config: my interface IP is my peer's neighbor IP.
  topo::Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  ConfigGenOptions opts;
  opts.k = 2;
  const auto cfg0 = router_config(g, 0, opts);
  const auto cfg1 = router_config(g, 1, opts);
  // Extract every 'ip address 172...' from cfg0 and find it as a neighbor
  // in cfg1, and vice versa.
  const std::string prefix = "ip address ";
  for (const auto& [mine, theirs] :
       {std::pair{&cfg0, &cfg1}, std::pair{&cfg1, &cfg0}}) {
    int found = 0;
    for (std::size_t pos = mine->find(prefix + "172.");
         pos != std::string::npos;
         pos = mine->find(prefix + "172.", pos + prefix.size())) {
      // The address: "172." plus at least one more digit or dot, followed
      // by the /31 netmask.
      const std::size_t start = pos + prefix.size();
      const std::size_t end =
          mine->find_first_not_of("0123456789.", start + 4);
      if (end == std::string::npos || end == start + 4 ||
          mine->compare(end, 16, " 255.255.255.254") != 0)
        continue;
      ++found;
      const std::string addr = mine->substr(start, end - start);
      EXPECT_NE(theirs->find("neighbor " + addr + " remote-as"),
                std::string::npos)
          << addr << " not a neighbor on the peer";
    }
    EXPECT_GT(found, 0);
  }
}

TEST(ConfigGen, K1NeedsNoRouteMaps) {
  const auto g = topo::make_leaf_spine(3, 1);
  ConfigGenOptions opts;
  opts.k = 1;
  const auto cfg = router_config(g, 0, opts);
  EXPECT_EQ(cfg.find("route-map PREPEND"), std::string::npos);
  EXPECT_NE(cfg.find("vrf definition VRF1"), std::string::npos);
}

}  // namespace
}  // namespace spineless::ctrl
