// Cluster topology: which cache servers share a failure domain.
//
// PR 3 taught fault plans about *zones* (named contiguous server ranges that
// crash as one unit); this header promotes the zone list to a first-class
// ClusterTopology that the schedulers and the Data Manager consume, so
// storage policies can *place against* the failure domains instead of merely
// suffering them.  The placement contract is the per-zone loss bound: a
// zone-aware plan never puts more than `loss_bound` of a dataset's cache
// quota inside one declared domain (capacity permitting), so a zone-crash
// costs at most that share of the dataset instead of the zone's full
// capacity-proportional slice.
//
// Servers not covered by any declared zone fail independently; Cover() makes
// that explicit by appending a singleton zone per uncovered server, which is
// how the engines and the spread rule consume a topology (a partition of
// [0, num_servers) into failure domains).
//
// A topology is plain data: Parse(ToSpec()) is the identity, and an empty
// topology means "zone-oblivious" everywhere — every consumer must behave
// bit-identically to the pre-topology code in that case.
//
// The topology also carries the cluster's GPU-type table (`gpu-type
// name=v100 count=64 speed=1` entries): named pools of GPUs with a relative
// speed factor.  Declaring no types means a uniform fleet, and every
// scheduler/engine must be bit-identical to the pre-heterogeneity code in
// that case (speed factors default to 1.0, and x * 1.0 == x exactly).
#ifndef SILOD_SRC_COMMON_TOPOLOGY_H_
#define SILOD_SRC_COMMON_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace silod {

// A contiguous range of cache servers that fails as one unit (a rack, a
// power domain).  Also used by the fault-plan spec language as FaultZone.
struct TopologyZone {
  std::string name;
  int first_server = 0;
  int last_server = 0;  // Inclusive.

  int size() const { return last_server - first_server + 1; }
  bool operator==(const TopologyZone&) const = default;
};

// A named pool of identical GPUs with a relative speed factor (1.0 = the
// baseline V100-class throughput the model zoo assumes).  A job placed on
// this type computes at `speed * job.speed_factor(type)` times its uniform
// ideal rate.
struct GpuTypeSpec {
  std::string name;
  int count = 0;
  double speed = 1.0;

  bool operator==(const GpuTypeSpec&) const = default;
};

class ClusterTopology {
 public:
  // Any single zone may hold at most this fraction of a dataset's quota
  // unless capacity forces more (see sched/zone_spread.h).
  static constexpr double kDefaultLossBound = 0.5;

  ClusterTopology() = default;

  // Parses ";"-separated entries of the form `name=<a>-<b>`, an optional
  // `loss-bound=<f>` entry, and `gpu-type name=<n> count=<c> speed=<s>`
  // entries (speed optional, default 1), e.g.
  // "rack0=0-3;rack1=4-7;loss-bound=0.25;gpu-type name=v100 count=64 speed=1".
  static Result<ClusterTopology> Parse(const std::string& spec);

  // Validates (in-range, disjoint, unique names) and sorts by first server.
  static Result<ClusterTopology> FromZones(std::vector<TopologyZone> zones,
                                           double loss_bound = kDefaultLossBound);

  // FromZones plus a GPU-type table (unique non-empty names, positive counts
  // and speeds).  Types keep their declaration order: it is the tie-break
  // order for placement, so it is part of the topology's identity.
  static Result<ClusterTopology> Make(std::vector<TopologyZone> zones,
                                      std::vector<GpuTypeSpec> gpu_types,
                                      double loss_bound = kDefaultLossBound);

  // "Empty" deliberately means "no zones declared": it gates the
  // zone-placement machinery only.  The GPU-type table has its own gate.
  bool empty() const { return zones_.empty(); }
  int num_zones() const { return static_cast<int>(zones_.size()); }
  const std::vector<TopologyZone>& zones() const { return zones_; }

  bool has_gpu_types() const { return !gpu_types_.empty(); }
  int num_gpu_types() const { return static_cast<int>(gpu_types_.size()); }
  const std::vector<GpuTypeSpec>& gpu_types() const { return gpu_types_; }

  // Index into gpu_types() for `name`, or -1 when unknown.
  int GpuTypeIndex(const std::string& name) const;

  // Sum of declared per-type counts (0 when no types are declared).  When
  // types are declared this must equal the cluster's total GPU count; the
  // engines and the service validate that at construction.
  int TotalTypedGpus() const;

  // Zone index owning `server`, or -1 when no declared zone covers it.
  int ZoneOf(int server) const;

  // True when every server in [0, num_servers) belongs to a zone.
  bool Covers(int num_servers) const;

  // Returns a copy where every uncovered server in [0, num_servers) is added
  // as its own singleton zone (named "srv<i>"): uncorrelated servers are
  // independent failure domains.  Identity when already covering.
  ClusterTopology Cover(int num_servers) const;

  // All zones within [0, num_servers); does not require full cover.
  Status Validate(int num_servers) const;

  // The topology a cluster of `num_servers` cache servers and `total_gpus`
  // GPUs runs with: declared zones Validate()d and Cover()ed, declared
  // gpu-type counts summing to total_gpus.  The engines and the service
  // resolve their configured topology through this.
  Result<ClusterTopology> Resolve(int num_servers, int total_gpus) const;

  // InvalidArgument when gpu types are declared and a gang of `gpus` is wider
  // than every pool: gangs never span types, so it could never start.
  Status CheckGangFits(std::int64_t gpus) const;

  // What a Snapshot carries: this topology when it declares zones or gpu
  // types, nullptr (a zone-oblivious uniform fleet) otherwise.
  const ClusterTopology* IfDeclared() const {
    return empty() && !has_gpu_types() ? nullptr : this;
  }

  // Canonical spec; Parse(ToSpec()) is the identity.
  std::string ToSpec() const;

  double loss_bound() const { return loss_bound_; }
  void set_loss_bound(double bound) { loss_bound_ = bound; }

  bool operator==(const ClusterTopology&) const = default;

 private:
  std::vector<TopologyZone> zones_;  // Sorted by first_server, disjoint.
  std::vector<GpuTypeSpec> gpu_types_;  // Declaration order; empty = uniform.
  double loss_bound_ = kDefaultLossBound;
};

}  // namespace silod

#endif  // SILOD_SRC_COMMON_TOPOLOGY_H_
