#include "ctrl/config_gen.h"

#include <sstream>
#include <vector>

#include "util/error.h"

namespace spineless::ctrl {
namespace {

using topo::Graph;
using topo::LinkId;
using topo::NodeId;

// One eBGP session riding a physical link as a dot1q subinterface pair.
struct Session {
  NodeId advertiser;
  int adv_vrf;
  NodeId receiver;
  int recv_vrf;
  int prepend;  // gadget cost; eBGP adds one AS hop itself
  int vlan;     // shared by both subinterfaces
};

// All sessions on one physical link, in canonical VLAN order.
std::vector<Session> link_sessions(const Graph& g, LinkId l, int k) {
  std::vector<Session> sessions;
  int vlan = 100;
  const topo::Link& link = g.link(l);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{link.a, link.b},
                             std::pair<NodeId, NodeId>{link.b, link.a}}) {
    // Traffic direction u -> v; v advertises to u (see ctrl/bgp.h).
    for (int i = 1; i <= k; ++i)
      sessions.push_back(Session{v, i, u, k, i, vlan++});
    for (int j = 1; j < k; ++j)
      sessions.push_back(Session{v, j + 1, u, j, 1, vlan++});
    if (k > 1) sessions.push_back(Session{v, 1, u, 1, 1, vlan++});
  }
  return sessions;
}

std::string vrf_name(int j) { return "VRF" + std::to_string(j); }

std::string p2p_ip(LinkId l, int vlan, bool low) {
  // 172.16.0.0/12 pool: 64 addresses per link, 2 per VLAN.
  const std::uint32_t base = (172u << 24) | (16u << 16);
  const std::uint32_t addr = base + static_cast<std::uint32_t>(l) * 64 +
                             static_cast<std::uint32_t>(vlan - 100) * 2 +
                             (low ? 0 : 1);
  std::ostringstream os;
  os << ((addr >> 24) & 255) << '.' << ((addr >> 16) & 255) << '.'
     << ((addr >> 8) & 255) << '.' << (addr & 255);
  return os.str();
}

std::string rack_subnet(NodeId r) {
  // 10.<128 + r/256>.<r%256>.0/24 — collision-free for up to 32k racks.
  std::ostringstream os;
  os << "10." << (128 + r / 256) << '.' << (r % 256) << ".0";
  return os.str();
}

}  // namespace

std::string router_config(const Graph& g, NodeId router,
                          const ConfigGenOptions& opts) {
  SPINELESS_CHECK(opts.k >= 1);
  SPINELESS_CHECK(router >= 0 && router < g.num_switches());
  const int as = opts.base_as + static_cast<int>(router);
  std::ostringstream os;
  os << "hostname r" << router << "\n!\n";

  // VRFs.
  for (int j = 1; j <= opts.k; ++j) {
    os << "vrf definition " << vrf_name(j) << "\n rd " << as << ":" << j
       << "\n address-family ipv4\n exit-address-family\n!\n";
  }

  // Host-facing interface in VRF K (only for switches with servers).
  if (g.servers(router) > 0) {
    os << "interface GigabitEthernet0/0\n vrf forwarding "
       << vrf_name(opts.k) << "\n ip address " << rack_subnet(router)
       << " 255.255.255.0\n description rack subnet, " << g.servers(router)
       << " hosts\n!\n";
  }

  // Subinterfaces: one per session this router participates in. Physical
  // port index = position in neighbors() + 1 (Gi0/0 is the host port).
  struct NeighborRef {
    int port_index;
    const Session* session;
    bool is_advertiser;
  };
  std::vector<std::vector<Session>> per_port_sessions;
  const auto& ports = g.neighbors(router);
  for (std::size_t p = 0; p < ports.size(); ++p)
    per_port_sessions.push_back(link_sessions(g, ports[p].link, opts.k));

  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (const Session& sess : per_port_sessions[p]) {
      const bool mine =
          sess.advertiser == router || sess.receiver == router;
      if (!mine) continue;
      const int my_vrf =
          sess.advertiser == router ? sess.adv_vrf : sess.recv_vrf;
      const bool low = g.link(ports[p].link).a == router;
      os << "interface GigabitEthernet0/" << (p + 1) << "." << sess.vlan
         << "\n encapsulation dot1Q " << sess.vlan << "\n vrf forwarding "
         << vrf_name(my_vrf) << "\n ip address "
         << p2p_ip(ports[p].link, sess.vlan, low) << " 255.255.255.254\n!\n";
    }
  }

  // Prepend route-maps (cost c => c-1 extra prepends; eBGP adds one).
  for (int c = 2; c <= opts.k; ++c) {
    os << "route-map PREPEND_" << c << " permit 10\n set as-path prepend";
    for (int i = 1; i < c; ++i) os << " " << as;
    os << "\n!\n";
  }

  // BGP process with one address family per VRF.
  os << "router bgp " << as << "\n bgp log-neighbor-changes\n";
  for (int j = 1; j <= opts.k; ++j) {
    os << " address-family ipv4 vrf " << vrf_name(j) << "\n  maximum-paths "
       << opts.max_paths << "\n";
    if (j == opts.k && g.servers(router) > 0) {
      os << "  network " << rack_subnet(router) << " mask 255.255.255.0\n";
    }
    for (std::size_t p = 0; p < ports.size(); ++p) {
      for (const Session& sess : per_port_sessions[p]) {
        const bool low = g.link(ports[p].link).a == router;
        if (sess.advertiser == router && sess.adv_vrf == j) {
          // I advertise on this session: neighbor is the receiver; my
          // prepend route-map applies outbound.
          const std::string peer = p2p_ip(ports[p].link, sess.vlan, !low);
          os << "  neighbor " << peer << " remote-as "
             << opts.base_as + static_cast<int>(sess.receiver)
             << "\n  neighbor " << peer << " activate\n";
          if (sess.prepend >= 2) {
            os << "  neighbor " << peer << " route-map PREPEND_"
               << sess.prepend << " out\n";
          }
        } else if (sess.receiver == router && sess.recv_vrf == j) {
          const std::string peer = p2p_ip(ports[p].link, sess.vlan, !low);
          os << "  neighbor " << peer << " remote-as "
             << opts.base_as + static_cast<int>(sess.advertiser)
             << "\n  neighbor " << peer << " activate\n";
        }
      }
    }
    os << " exit-address-family\n";
  }
  os << "!\n";
  return os.str();
}

}  // namespace spineless::ctrl
