// Writing a warden for a new data type (§3.2).
//
// "To fully support a new data type, an appropriate warden has to be
// written and incorporated into Odyssey at each client."  This example
// builds a warden for spatial data — topographic map tiles whose natural
// fidelity dimension is *resolution* (minimum feature size, §2.2) — and an
// application that pans across a map while adapting resolution to
// bandwidth, demonstrating everything a warden author touches:
//
//   * fidelity levels and their resource requirements,
//   * a server connection opened through the client (never directly),
//   * tsops for access and fidelity change,
//   * the file-style Read hook for byte-stream access,
//   * windows of tolerance registered by the application.
//
//   $ ./custom_warden

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "src/core/contract.h"
#include "src/core/odyssey_client.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/trace/trace_session.h"
#include "src/tracemod/waveforms.h"

using namespace odyssey;

// ---------------------------------------------------------------------------
// The data type: map tiles at three resolutions.
// ---------------------------------------------------------------------------

struct MapLevel {
  const char* name;
  double tile_bytes;
  double fidelity;  // strictly increasing with quality (§6.1.2)
};

constexpr MapLevel kMapLevels[] = {
    {"10m contours", 48.0 * 1024.0, 1.0},
    {"30m contours", 12.0 * 1024.0, 0.5},
    {"90m shaded relief", 3.0 * 1024.0, 0.15},
};

enum MapTsop : int {
  kMapOpen = 1,        // in: region name      out: MapInfo
  kMapSetLevel = 2,    // in: MapSetLevel      out: -
  kMapFetchTile = 3,   // in: MapFetchTile     out: MapTileResult
};

struct MapInfo {
  int level_count = 0;
  double tile_bytes[8] = {};
  double fidelity[8] = {};
};

struct MapSetLevel {
  int level = 0;
};

struct MapFetchTile {
  int x = 0;
  int y = 0;
};

struct MapTileResult {
  double fidelity = 0.0;
  double bytes = 0.0;
};

// ---------------------------------------------------------------------------
// The warden: one per data type, installed at /odyssey/maps.
// ---------------------------------------------------------------------------

class MapWarden : public Warden {
 public:
  MapWarden() : Warden("maps") {}

  void Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
            TsopCallback done) override {
    (void)path;
    switch (opcode) {
      case kMapOpen: {
        Session& session = sessions_[app];
        if (session.endpoint == nullptr) {
          // Wardens are entirely responsible for communicating with
          // servers; applications never contact them directly (§4.1).
          session.endpoint = client()->OpenConnection(app, "gis-server");
        }
        MapInfo info;
        info.level_count = static_cast<int>(std::size(kMapLevels));
        for (int i = 0; i < info.level_count; ++i) {
          info.tile_bytes[i] = kMapLevels[i].tile_bytes;
          info.fidelity[i] = kMapLevels[i].fidelity;
        }
        done(OkStatus(), PackStruct(info));
        return;
      }
      case kMapSetLevel: {
        MapSetLevel request;
        auto it = sessions_.find(app);
        if (it == sessions_.end() || !UnpackStruct(in, &request) || request.level < 0 ||
            request.level >= static_cast<int>(std::size(kMapLevels))) {
          done(InvalidArgumentError("bad level"), "");
          return;
        }
        it->second.level = request.level;
        done(OkStatus(), "");
        return;
      }
      case kMapFetchTile: {
        MapFetchTile request;
        auto it = sessions_.find(app);
        if (it == sessions_.end() || !UnpackStruct(in, &request)) {
          done(InvalidArgumentError("bad tile request"), "");
          return;
        }
        Session& session = it->second;
        const MapLevel& level = kMapLevels[session.level];
        const MapTileResult result{level.fidelity, level.tile_bytes};
        session.tiles_served++;
        session.endpoint->Fetch(level.tile_bytes, 5 * kMillisecond,
                                [result, done = std::move(done)](Status) {
                                  done(OkStatus(), PackStruct(result));
                                });
        return;
      }
      default:
        done(UnsupportedError("unknown maps tsop"), "");
        return;
    }
  }

  // Byte-stream access: reading a tile path yields its metadata as text,
  // demonstrating the file-system integration path (§4.1).
  void Read(AppId app, const std::string& path, ReadCallback done) override {
    const auto it = sessions_.find(app);
    if (it == sessions_.end()) {
      done(NotFoundError("open a region first"), "");
      return;
    }
    const MapLevel& level = kMapLevels[it->second.level];
    done(OkStatus(), "tile " + path + " @ " + level.name);
  }

 private:
  struct Session {
    Endpoint* endpoint = nullptr;
    int level = 0;
    int tiles_served = 0;
  };

  std::map<AppId, Session> sessions_;
};

// ---------------------------------------------------------------------------
// The application: pans across the map at 2 tiles/second, adapting
// resolution so tiles keep up with the pan.
// ---------------------------------------------------------------------------

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));
  Simulation sim(1);
  sim.set_trace(trace_session.recorder());
  Link link(&sim, kHighBandwidth, kOneWayLatency);
  Modulator modulator(&sim, &link);
  OdysseyClient client(&sim, &link, std::make_unique<CentralizedStrategy>(&sim));
  client.InstallWarden(std::make_unique<MapWarden>());
  const AppId app = client.RegisterApplication("map-viewer");

  modulator.Replay(MakeStepDown());  // lose the fast network mid-pan

  MapInfo info;
  client.Tsop(app, "/odyssey/maps/pittsburgh", kMapOpen, "pittsburgh",
              [&](Status status, std::string out) {  // ody_lint: owned-capture
                ODY_ASSERT(status.ok() && UnpackStruct(out, &info), "map open failed");
              });

  int level = 0;
  int fetched = 0;
  double fidelity_sum = 0.0;

  // Pick the best resolution whose tile stream fits the availability.
  const auto choose_level = [&]() {
    const double bandwidth = client.CurrentLevel(app, ResourceId::kNetworkBandwidth);
    for (int i = 0; i < info.level_count; ++i) {
      if (info.tile_bytes[i] * 2.0 * 1.1 <= bandwidth) {  // 2 tiles/s + headroom
        return i;
      }
    }
    return info.level_count - 1;
  };

  // The pan loop: one tile each 500 ms.
  std::function<void(int)> pan = [&](int step) {
    if (step >= 120) {
      return;
    }
    const int wanted = choose_level();
    if (wanted != level && fetched > 2) {
      std::printf("[viewer] t=%5.1fs switching %s -> %s\n", DurationToSeconds(sim.now()),
                  kMapLevels[level].name, kMapLevels[wanted].name);
      level = wanted;
      client.Tsop(app, "/odyssey/maps/pittsburgh", kMapSetLevel,
                  PackStruct(MapSetLevel{level}), [](Status, std::string) {});
    }
    client.Tsop(app, "/odyssey/maps/pittsburgh", kMapFetchTile,
                // ody_lint: owned-capture
                PackStruct(MapFetchTile{step, 0}), [&](Status status, std::string out) {
                  MapTileResult tile;
                  if (status.ok() && UnpackStruct(out, &tile)) {
                    ++fetched;
                    fidelity_sum += tile.fidelity;
                  }
                });
    sim.Schedule(500 * kMillisecond, [&pan, step] { pan(step + 1); });  // ody_lint: owned-capture
  };
  pan(0);

  sim.RunUntil(kWaveformLength + 5 * kSecond);

  std::printf("\npanned 120 tiles; fetched %d at mean fidelity %.2f\n", fetched,
              fetched == 0 ? 0.0 : fidelity_sum / fetched);

  // Byte-stream access through the same namespace.
  client.Read(app, "/odyssey/maps/tiles/42.17", [](Status, std::string data) {
    std::printf("read: %s\n", data.c_str());
  });
  sim.Run();
  return trace_session.ExportOrWarn() ? 0 : 1;
}
