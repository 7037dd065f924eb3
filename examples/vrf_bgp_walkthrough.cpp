// Deployment walkthrough for the §4 routing design: what a network
// engineer would actually configure and observe. Builds a small DRing,
// brings up the BGP+VRF mesh, prints one router's per-VRF forwarding state
// (the moral equivalent of `show ip route vrf ...`), then fails a link and
// watches reconvergence.
//
//   ./vrf_bgp_walkthrough [--m=6 --n=2 --k=2]
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/spineless.h"
#include "util/flags.h"

using namespace spineless;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int m = static_cast<int>(flags.get_int("m", 6));
  const int n = static_cast<int>(flags.get_int("n", 2));
  const int k = static_cast<int>(flags.get_int("k", 2));

  const topo::DRing dring = topo::make_dring(m, n, /*servers_per_tor=*/4);
  const topo::Graph& g = dring.graph;
  std::printf("DRing: %d supernodes x %d ToRs, %d network links.\n"
              "Each router runs %d VRFs; hosts attach to VRF %d; one AS per "
              "router;\neBGP sessions follow the paper's virtual-connection "
              "gadget with AS-path prepending as cost.\n\n",
              m, n, g.num_links(), k, k);

  ctrl::BgpVrfNetwork bgp(g, k);
  const int rounds = bgp.converge();
  std::printf("Converged in %d advertisement rounds; %zu routes installed "
              "across all RIBs.\n\n", rounds, bgp.installed_routes());

  // Show router 0's host-VRF forwarding state toward a few prefixes.
  std::printf("Router 0, VRF %d (host VRF) — BGP multipath FIB:\n", k);
  for (topo::NodeId dst : {g.neighbors(0)[0].neighbor,
                           static_cast<topo::NodeId>(g.num_switches() / 2),
                           static_cast<topo::NodeId>(g.num_switches() - 1)}) {
    if (dst == 0) continue;
    std::printf("  prefix rack%-3d  AS-path length %d, next hops:", dst,
                bgp.best_path_length(0, k, dst));
    for (const auto& e : bgp.fib(0, k, dst))
      std::printf("  (port->rack%d, VRF %d)", e.port.neighbor, e.next_vrf);
    std::printf("\n");
    const auto paths = bgp.fib_paths(0, dst);
    std::printf("    %zu usable path(s); Theorem 1 says max(L, K): L=%d -> "
                "cost %d\n", paths.size(),
                topo::bfs_distances(g, 0)[static_cast<std::size_t>(dst)],
                bgp.best_path_length(0, k, dst));
  }

  // Fail the direct link to our first neighbor and reconverge.
  const topo::NodeId victim = g.neighbors(0)[0].neighbor;
  const topo::LinkId link = g.neighbors(0)[0].link;
  std::printf("\n--- failing link rack0 <-> rack%d ---\n", victim);
  bgp.fail_link(link);
  const int rounds2 = bgp.converge();
  std::printf("Reconverged in %d rounds. rack0 -> rack%d now: AS-path "
              "length %d via %zu path(s)\n", rounds2, victim,
              bgp.best_path_length(0, k, victim),
              bgp.fib_paths(0, victim).size());
  for (const auto& path : bgp.fib_paths(0, victim)) {
    std::printf("    ");
    for (std::size_t i = 0; i < path.size(); ++i)
      std::printf("%srack%d", i ? " -> " : "", path[i]);
    std::printf("\n");
  }

  bgp.restore_link(link);
  bgp.converge();
  std::printf("\nLink restored; direct route back: AS-path length %d.\n",
              bgp.best_path_length(0, k, victim));

  // The paper: "the routing configurations at each router can be generated
  // by a simple script to avoid errors". Here is router 0's, ready for an
  // emulator; router_config() emits any router's.
  ctrl::ConfigGenOptions opts;
  opts.k = k;
  std::printf("\n--- generated configuration for r0 (excerpt) ---\n");
  const std::string cfg = ctrl::router_config(g, 0, opts);
  std::fwrite(cfg.data(), 1, std::min<std::size_t>(cfg.size(), 1500), stdout);
  if (cfg.size() > 1500)
    std::printf("... (%zu more bytes; see ctrl/config_gen.h)\n",
                cfg.size() - 1500);
  return 0;
}
