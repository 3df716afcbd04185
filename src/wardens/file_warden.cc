#include "src/wardens/file_warden.h"

#include <utility>

#include "src/core/tsop_codec.h"
#include "src/trace/trace_macros.h"

namespace odyssey {

double FileConsistencyFidelity(FileConsistency level) {
  switch (level) {
    case FileConsistency::kStrict:
      return 1.0;
    case FileConsistency::kPeriodic:
      return 0.6;
    case FileConsistency::kOptimistic:
      return 0.3;
    case FileConsistency::kAdaptive:
      return 0.0;  // resolved per read
  }
  return 0.0;
}

FileConsistency FileWarden::AdaptiveLevel(double bandwidth_bps) {
  if (bandwidth_bps >= kStrictBandwidthFloor) {
    return FileConsistency::kStrict;
  }
  if (bandwidth_bps >= kPeriodicBandwidthFloor) {
    return FileConsistency::kPeriodic;
  }
  return FileConsistency::kOptimistic;
}

Endpoint* FileWarden::EndpointFor(AppId app) {
  auto it = endpoints_.find(app);
  if (it == endpoints_.end()) {
    it = endpoints_.emplace(app, client()->OpenConnection(app, "file-server")).first;
  }
  return it->second;
}

FileConsistency FileWarden::EffectiveLevel(AppId app) const {
  const auto it = level_.find(app);
  const FileConsistency configured =
      it == level_.end() ? FileConsistency::kAdaptive : it->second;
  if (configured != FileConsistency::kAdaptive) {
    return configured;
  }
  return AdaptiveLevel(client()->CurrentLevel(app, ResourceId::kNetworkBandwidth));
}

void FileWarden::Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
                      TsopCallback done) {
  switch (opcode) {
    case kFileRead:
      ServeRead(app, path, std::move(done));
      return;
    case kFileSetConsistency: {
      FileSetConsistencyRequest request;
      if (!UnpackStruct(in, &request) || request.level < 0 || request.level > 3) {
        done(InvalidArgumentError("bad consistency level"), "");
        return;
      }
      level_[app] = static_cast<FileConsistency>(request.level);
      ODY_TRACE_INSTANT1(client()->sim()->trace(), kWarden, "file_consistency",
                         client()->sim()->now(), app, "level", request.level);
      done(OkStatus(), "");
      return;
    }
    case kFileStats:
      done(OkStatus(), PackStruct(stats_));
      return;
    default:
      done(UnsupportedError("unknown files tsop"), "");
      return;
  }
}

void FileWarden::Read(AppId app, const std::string& path, ReadCallback done) {
  ServeRead(app, path, [path, done = std::move(done)](Status status, std::string out) {
    if (!status.ok()) {
      done(status, "");
      return;
    }
    FileReadReply reply;
    if (!UnpackStruct(out, &reply)) {
      done(InvalidArgumentError("malformed file read reply"), "");
      return;
    }
    done(OkStatus(),
         "file:" + path + "@v" + std::to_string(reply.version));
  });
}

void FileWarden::ServeRead(AppId app, const std::string& path, TsopCallback done) {
  ++stats_.reads;
  const auto cached = cache_entries_.find(path);
  if (cached == cache_entries_.end()) {
    ++stats_.misses;
    FetchAndServe(app, path, /*count_refetch=*/false, std::move(done));
    return;
  }

  const FileConsistency level = EffectiveLevel(app);
  const Time now = client()->sim()->now();
  const bool must_validate =
      level == FileConsistency::kStrict ||
      (level == FileConsistency::kPeriodic && now - cached->second.validated_at > kPeriodicTtl);

  if (!must_validate) {
    // Serve the cached copy as-is.  If the server has moved on, this read
    // exposed stale data — the price of the lower consistency fidelity.
    ++stats_.cache_hits;
    FileInfo current;
    if (server_->Stat(path, &current).ok() && current.version != cached->second.version) {
      ++stats_.stale_serves;
    }
    TouchLru(path);
    FileReadReply reply{cached->second.bytes, cached->second.version,
                       FileConsistencyFidelity(level), true, false};
    done(OkStatus(), PackStruct(reply));
    return;
  }

  // Validate: a small exchange comparing versions with the server.
  ++stats_.validations;
  Endpoint* endpoint = EndpointFor(app);
  endpoint->Call(kControlMessageBytes, kControlMessageBytes, server_->ValidateCompute(),
                 [this, app, path, level, done = std::move(done)](Status) mutable {
                   FileInfo current;
                   const Status status = server_->Stat(path, &current);
                   if (!status.ok()) {
                     done(status, "");
                     return;
                   }
                   auto it = cache_entries_.find(path);
                   if (it != cache_entries_.end() && it->second.version == current.version) {
                     ++stats_.cache_hits;
                     it->second.validated_at = client()->sim()->now();
                     TouchLru(path);
                     FileReadReply reply{it->second.bytes, it->second.version,
                                        FileConsistencyFidelity(level), true, true};
                     done(OkStatus(), PackStruct(reply));
                     return;
                   }
                   // Stale (or concurrently evicted): refetch the new version.
                   ++stats_.refetches;
                   FetchAndServe(app, path, /*count_refetch=*/true, std::move(done));
                 });
}

void FileWarden::FetchAndServe(AppId app, const std::string& path, bool count_refetch,
                               TsopCallback done) {
  (void)count_refetch;  // accounting happened at the call site
  FileInfo info;
  const Status status = server_->Stat(path, &info);
  if (!status.ok()) {
    done(status, "");
    return;
  }
  Endpoint* endpoint = EndpointFor(app);
  endpoint->Fetch(info.bytes, server_->FetchCompute(),
                  [this, app, path, info, done = std::move(done)](Status) mutable {
                    InsertWithEviction(path, info);
                    const FileConsistency level = EffectiveLevel(app);
                    FileReadReply reply{info.bytes, info.version,
                                       FileConsistencyFidelity(level), false, true};
                    done(OkStatus(), PackStruct(reply));
                  });
}

void FileWarden::TouchLru(const std::string& path) {
  auto it = cache_entries_.find(path);
  if (it == cache_entries_.end()) {
    return;
  }
  lru_.erase(it->second.lru_position);
  lru_.push_front(path);
  it->second.lru_position = lru_.begin();
}

void FileWarden::InsertWithEviction(const std::string& path, const FileInfo& info) {
  const double kb = info.bytes / 1024.0;
  // Replace any existing entry first.
  auto existing = cache_entries_.find(path);
  if (existing != cache_entries_.end()) {
    if (cache_ != nullptr) {
      cache_->Release(existing->second.bytes / 1024.0);
    }
    lru_.erase(existing->second.lru_position);
    cache_entries_.erase(existing);
  }
  if (cache_ != nullptr) {
    // Evict least-recently-used files until the new one fits.
    bool reserved = cache_->Reserve(kb);
    while (!reserved && !lru_.empty()) {
      const std::string victim = lru_.back();
      lru_.pop_back();
      auto vit = cache_entries_.find(victim);
      if (vit != cache_entries_.end()) {
        cache_->Release(vit->second.bytes / 1024.0);
        cache_entries_.erase(vit);
        ++stats_.evictions;
      }
      reserved = cache_->Reserve(kb);
    }
    if (!reserved) {
      return;  // larger than the whole cache; serve uncached
    }
  }
  lru_.push_front(path);
  cache_entries_[path] =
      CachedFile{info.bytes, info.version, client()->sim()->now(), lru_.begin()};
}

}  // namespace odyssey
