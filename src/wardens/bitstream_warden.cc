#include "src/wardens/bitstream_warden.h"

#include <utility>

#include "src/core/tsop_codec.h"
#include "src/trace/trace_macros.h"

namespace odyssey {

void BitstreamWarden::Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
                           TsopCallback done) {
  (void)path;
  switch (opcode) {
    case kBitstreamStart: {
      BitstreamParams params;
      if (!UnpackStruct(in, &params)) {
        done(InvalidArgumentError("bad bitstream params"), "");
        return;
      }
      Session& session = sessions_[app];
      if (session.endpoint == nullptr) {
        session.endpoint = client()->OpenConnection(app, "bitstream");
      }
      session.target_bps = params.target_bps;
      if (params.window_bytes > 0.0) {
        session.window_bytes = params.window_bytes;
      } else if (params.target_bps > 0.0) {
        // A paced consumer reads in chunks sized to its rate (about half a
        // second of data), keeping its consumption visible to the viceroy's
        // recent-use accounting between reads.
        const double paced = params.target_bps * 0.5;
        const double floor_bytes = 8.0 * 1024.0;
        session.window_bytes = paced < floor_bytes          ? floor_bytes
                               : paced > kDefaultWindowBytes ? kDefaultWindowBytes
                                                             : paced;
      } else {
        session.window_bytes = kDefaultWindowBytes;
      }
      const bool was_running = session.running;
      session.running = true;
      ODY_TRACE_INSTANT1(client()->sim()->trace(), kWarden, "bitstream_start",
                         client()->sim()->now(), app, "target_bps", session.target_bps);
      done(OkStatus(), PackStruct(BitstreamStarted{session.endpoint->id()}));
      if (!was_running) {
        // Prime the round-trip estimate, then stream.
        session.endpoint->Ping([this, app](Status) { PumpStream(app); });
      }
      return;
    }
    case kBitstreamStop: {
      auto it = sessions_.find(app);
      if (it == sessions_.end()) {
        done(NotFoundError("no bitstream session"), "");
        return;
      }
      it->second.running = false;
      ODY_TRACE_INSTANT1(client()->sim()->trace(), kWarden, "bitstream_stop",
                         client()->sim()->now(), app, "bytes_consumed",
                         it->second.bytes_consumed);
      done(OkStatus(), PackStruct(BitstreamTotals{it->second.bytes_consumed}));
      return;
    }
    default:
      done(UnsupportedError("unknown bitstream tsop"), "");
      return;
  }
}

void BitstreamWarden::PumpStream(AppId app) {
  auto it = sessions_.find(app);
  if (it == sessions_.end() || !it->second.running) {
    return;
  }
  const Time start = client()->sim()->now();
  // Modest per-window service time at the server, jittered per trial.
  const auto service = static_cast<Duration>(
      3.0 * static_cast<double>(kMillisecond) * client()->sim()->rng().JitterFactor(0.3));
  client()->sim()->Schedule(service, [this, app, start] {
    auto sit = sessions_.find(app);
    if (sit == sessions_.end() || !sit->second.running) {
      return;
    }
    sit->second.endpoint->FetchWindow(sit->second.window_bytes, [this, app, start](Status) {
      auto again = sessions_.find(app);
      if (again == sessions_.end() || !again->second.running) {
        return;
      }
      Session& s = again->second;
      s.bytes_consumed += s.window_bytes;
      if (s.target_bps <= 0.0) {
        PumpStream(app);  // consume as fast as possible
        return;
      }
      // Pace consumption: each window should occupy window/target seconds
      // of wall-clock; sleep off whatever the transfer did not use.  The
      // consumer's scheduling is not metronomic, so the budget jitters
      // slightly per cycle.
      const Duration budget = SecondsToDuration(
          s.window_bytes / s.target_bps * client()->sim()->rng().JitterFactor(0.02));
      const Duration used = client()->sim()->now() - start;
      const Duration gap = budget > used ? budget - used : 0;
      client()->sim()->Schedule(gap, [this, app] { PumpStream(app); });
    });
  });
}

}  // namespace odyssey
