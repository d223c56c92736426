#include "util/cpu_topology.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace mel::util {

namespace internal {

std::vector<uint32_t> ParseCpuList(const std::string& list) {
  std::vector<uint32_t> cpus;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const size_t dash = token.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      const unsigned long v = std::strtoul(token.c_str(), &end, 10);
      if (end == token.c_str()) return {};  // unparsable -> undetected
      cpus.push_back(static_cast<uint32_t>(v));
    } else {
      const unsigned long lo = std::strtoul(token.c_str(), &end, 10);
      const unsigned long hi =
          std::strtoul(token.c_str() + dash + 1, &end, 10);
      if (hi < lo || hi - lo > 4096) return {};
      for (unsigned long c = lo; c <= hi; ++c) {
        cpus.push_back(static_cast<uint32_t>(c));
      }
    }
  }
  return cpus;
}

}  // namespace internal

namespace {

bool ReadUint(const std::string& path, uint32_t* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  long long v = -1;
  in >> v;
  if (!in || v < 0) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

CpuTopology DetectTopology() {
  CpuTopology topo;
  const auto fallback = [&topo] {
    topo.cpus.clear();
    uint32_t n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
    for (uint32_t c = 0; c < n; ++c) {
      topo.cpus.push_back({c, c, 0});
    }
    topo.num_sockets = 1;
    topo.detected = false;
    return topo;
  };

  std::ifstream online("/sys/devices/system/cpu/online");
  if (!online.is_open()) return fallback();
  std::string list;
  std::getline(online, list);
  const std::vector<uint32_t> cpu_ids = internal::ParseCpuList(list);
  if (cpu_ids.empty()) return fallback();

  std::map<uint32_t, uint32_t> socket_remap;  // raw package id -> dense
  for (uint32_t cpu : cpu_ids) {
    const std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    uint32_t package = 0;
    uint32_t core = cpu;
    // Missing per-cpu topology files degrade that cpu to socket 0 /
    // core==cpu rather than failing the whole detection.
    ReadUint(base + "physical_package_id", &package);
    ReadUint(base + "core_id", &core);
    const auto it = socket_remap
                        .emplace(package,
                                 static_cast<uint32_t>(socket_remap.size()))
                        .first;
    topo.cpus.push_back({cpu, core, it->second});
  }
  topo.num_sockets = std::max<uint32_t>(
      1, static_cast<uint32_t>(socket_remap.size()));
  std::sort(topo.cpus.begin(), topo.cpus.end(),
            [](const CpuTopology::Cpu& a, const CpuTopology::Cpu& b) {
              if (a.socket != b.socket) return a.socket < b.socket;
              if (a.core_id != b.core_id) return a.core_id < b.core_id;
              return a.cpu_id < b.cpu_id;
            });
  topo.detected = true;
  return topo;
}

}  // namespace

const CpuTopology& HostTopology() {
  static const CpuTopology topo = DetectTopology();
  return topo;
}

bool PinCurrentThreadToCpu(uint32_t cpu_id) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu_id, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu_id;
  return false;
#endif
}

}  // namespace mel::util
