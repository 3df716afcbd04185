// The file warden: whole-file caching with consistency as the fidelity
// dimension.
//
// §2.2: "Fidelity has many dimensions.  One well-known, universal dimension
// is consistency.  Systems such as Coda, Ficus and Bayou expose potentially
// stale data to applications when network connectivity is poor."  This
// warden makes that dimension concrete: files fetched from a FileServer are
// cached whole (charging the cache manager when one is attached), and reads
// are served under one of three consistency levels —
//
//   kStrict     (fidelity 1.0)  validate the cached version with the server
//                               on every read;
//   kPeriodic   (fidelity 0.6)  validate only when the cached copy is older
//                               than a TTL;
//   kOptimistic (fidelity 0.3)  serve whatever is cached, never validate —
//                               disconnected-style operation.
//
// The adaptive mode picks a level from the bandwidth estimate, trading
// consistency for performance exactly as the paper's taxonomy prescribes.
//
// Tsops:
//   kFileRead           in: -                       out: FileReadReply
//   kFileSetConsistency in: FileSetConsistencyRequest out: -
//   kFileStats          in: -                       out: FileWardenStats
// (the file is named by the tsop path, e.g. /odyssey/files/etc/motd)

#ifndef SRC_WARDENS_FILE_WARDEN_H_
#define SRC_WARDENS_FILE_WARDEN_H_

#include <list>
#include <map>
#include <string>

#include "src/core/cache_manager.h"
#include "src/core/odyssey_client.h"
#include "src/core/warden.h"
#include "src/servers/file_server.h"

namespace odyssey {

enum FileTsopOpcode : int {
  kFileRead = 1,
  kFileSetConsistency = 2,
  kFileStats = 3,
};

enum class FileConsistency : int {
  kStrict = 0,
  kPeriodic = 1,
  kOptimistic = 2,
  kAdaptive = 3,  // warden picks from the bandwidth estimate
};

double FileConsistencyFidelity(FileConsistency level);

struct FileSetConsistencyRequest {
  int level = 0;
};

struct FileReadReply {
  double bytes = 0.0;
  uint64_t version = 0;
  double fidelity = 0.0;  // of the consistency level that served the read
  bool cache_hit = false;
  bool validated = false;
};

struct FileWardenStats {
  int reads = 0;
  int cache_hits = 0;
  int misses = 0;
  int validations = 0;
  int refetches = 0;      // validation found the cached copy stale
  int stale_serves = 0;   // served a copy the server had already updated
  int evictions = 0;
};

class FileWarden : public Warden {
 public:
  // Validation TTL for the periodic level.
  static constexpr Duration kPeriodicTtl = 10 * kSecond;
  // Adaptive thresholds: strict needs headroom for a validation round trip
  // per read; below the low mark the warden goes optimistic.
  static constexpr double kStrictBandwidthFloor = 48.0 * 1024.0;
  static constexpr double kPeriodicBandwidthFloor = 12.0 * 1024.0;

  // |cache| may be null (unbounded cache, no accounting).
  explicit FileWarden(FileServer* server, CacheManager* cache = nullptr)
      : Warden("files"), server_(server), cache_(cache) {}

  void Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
            TsopCallback done) override;

  // Byte-stream access: Read() serves the file body descriptor under the
  // current consistency level.
  void Read(AppId app, const std::string& path, ReadCallback done) override;

  // The level the adaptive policy picks at |bandwidth_bps| (for tests).
  static FileConsistency AdaptiveLevel(double bandwidth_bps);

 private:
  struct CachedFile {
    double bytes = 0.0;
    uint64_t version = 0;
    Time validated_at = 0;
    std::list<std::string>::iterator lru_position;
  };

  Endpoint* EndpointFor(AppId app);
  FileConsistency EffectiveLevel(AppId app) const;
  void ServeRead(AppId app, const std::string& path, TsopCallback done);
  // Fetches |path| whole, inserting it into the cache (evicting LRU files
  // to make room), then completes with a fresh reply.
  void FetchAndServe(AppId app, const std::string& path, bool count_refetch, TsopCallback done);
  void TouchLru(const std::string& path);
  void InsertWithEviction(const std::string& path, const FileInfo& info);

  FileServer* server_;
  CacheManager* cache_;
  std::map<AppId, Endpoint*> endpoints_;
  std::map<AppId, FileConsistency> level_;
  std::map<std::string, CachedFile> cache_entries_;
  std::list<std::string> lru_;  // front = most recent
  FileWardenStats stats_;
};

}  // namespace odyssey

#endif  // SRC_WARDENS_FILE_WARDEN_H_
