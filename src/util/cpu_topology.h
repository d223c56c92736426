#ifndef MEL_UTIL_CPU_TOPOLOGY_H_
#define MEL_UTIL_CPU_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mel::util {

/// \brief Core/socket layout of the host, read from
/// /sys/devices/system/cpu (Linux). When sysfs is unavailable or
/// unparsable the topology degrades to a flat single-socket view with
/// `detected == false`, which the thread pool treats as "do not pin".
struct CpuTopology {
  struct Cpu {
    uint32_t cpu_id = 0;   // kernel cpu number (valid for affinity masks)
    uint32_t core_id = 0;  // physical core within the socket
    uint32_t socket = 0;   // dense socket index in [0, num_sockets)
  };

  /// Online cpus sorted by (socket, core_id, cpu_id), so that assigning
  /// consecutive workers to consecutive entries fills one socket's cores
  /// before spilling to the next.
  std::vector<Cpu> cpus;
  uint32_t num_sockets = 1;
  bool detected = false;
};

/// Topology of this host, detected once and cached for the process.
const CpuTopology& HostTopology();

/// Pins the calling thread to one cpu. Returns false (and changes
/// nothing) when unsupported on this platform or rejected by the kernel.
bool PinCurrentThreadToCpu(uint32_t cpu_id);

namespace internal {
/// Parses a sysfs cpu list such as "0-3,8,10-11". Exposed for tests.
std::vector<uint32_t> ParseCpuList(const std::string& list);
}  // namespace internal

}  // namespace mel::util

#endif  // MEL_UTIL_CPU_TOPOLOGY_H_
