// The OdysseyClient facade: the programming interface of Figure 3.
//
// An OdysseyClient bundles the viceroy, the warden ensemble, and the object
// namespace — the paper's single-address-space Odyssey process.  Applications
// register themselves, then operate on Odyssey objects (read/write/tsop),
// express resource expectations (request), and receive upcalls.
//
// Construction follows the experiment recipe:
//
//   Simulation sim(seed);
//   Link link(&sim, capacity, latency);
//   Modulator modulator(&sim, &link);
//   OdysseyClient client(&sim, &link,
//                        std::make_unique<CentralizedStrategy>(&sim));
//   client.InstallWarden(std::make_unique<VideoWarden>(server));
//   AppId app = client.RegisterApplication("xanim");
//   ...
//   modulator.Replay(MakeStepUp());
//   sim.Run();

#ifndef SRC_CORE_ODYSSEY_CLIENT_H_
#define SRC_CORE_ODYSSEY_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/core/object_namespace.h"
#include "src/core/resource.h"
#include "src/core/status.h"
#include "src/core/viceroy.h"
#include "src/core/warden.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"

namespace odyssey {

class OdysseyClient {
 public:
  OdysseyClient(Simulation* sim, Link* link, std::unique_ptr<BandwidthStrategy> strategy,
                Duration upcall_latency = 0);

  // Detaches every open connection from the viceroy before members are torn
  // down: endpoints_ is destroyed before viceroy_, and the strategy must not
  // unsubscribe from logs that no longer exist.
  ~OdysseyClient();

  OdysseyClient(const OdysseyClient&) = delete;
  OdysseyClient& operator=(const OdysseyClient&) = delete;

  // --- Configuration ---

  // Installs |warden| at /odyssey/<name> and attaches it.  Returns a
  // non-owning pointer for convenience; the client keeps ownership.
  Warden* InstallWarden(std::unique_ptr<Warden> warden);

  // Registers an application with the viceroy.
  AppId RegisterApplication(std::string name);

  // Opens a connection from a warden to a remote service and attaches it to
  // the viceroy on behalf of |app|.  The endpoint lives as long as the
  // client and inherits the client's retry policy and fault injector.
  Endpoint* OpenConnection(AppId app, const std::string& service_name);

  // Failure semantics applied to connections opened afterwards (and, for
  // convenience, to already-open ones): per-call timeouts, bounded retries
  // with seeded backoff jitter.  Default-constructed RetryPolicy (timeout 0)
  // restores the fair-weather protocol.
  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  // Routes all connection traffic through |injector| (null detaches).  The
  // injector must outlive the client's traffic.
  void set_fault_injector(FaultInjector* injector);

  // Observes every connection the client opens (explicitly or on behalf of
  // a warden), after it is attached to the viceroy.  The fleet layer uses
  // this to map connections onto shared-server groups by service name.
  using ConnectionObserver = std::function<void(Endpoint* endpoint, const std::string& service)>;
  void set_connection_observer(ConnectionObserver observer) {
    connection_observer_ = std::move(observer);
  }

  // --- The Odyssey API (Figure 3) ---

  // Odyssey objects can also be identified by descriptor rather than
  // pathname (Figure 3's note: "the request and tsop calls have variants
  // that identify Odyssey objects by file descriptors").
  using OdysseyFd = int;

  struct [[nodiscard]] OpenResult {
    Status status;
    OdysseyFd fd = -1;
  };

  // Resolves |path| once and returns a descriptor for it.  The descriptor
  // is scoped to |app|.
  OpenResult Open(AppId app, const std::string& path);
  Status Close(AppId app, OdysseyFd fd);

  // Descriptor variants of tsop/read/write.  kInvalidArgument for unknown
  // or foreign descriptors.
  void TsopFd(AppId app, OdysseyFd fd, int opcode, const std::string& in,
              Warden::TsopCallback done);
  void ReadFd(AppId app, OdysseyFd fd, Warden::ReadCallback done);
  void WriteFd(AppId app, OdysseyFd fd, std::string data, Warden::WriteCallback done);

  // request(): expresses a resource expectation.  Every variant takes the
  // descriptor by value and moves it on, so a caller that passes an rvalue
  // hands its upcall handler over without copying it.
  RequestResult Request(AppId app, ResourceDescriptor descriptor);

  // The literal Figure 3(a) form: request(in path, in resource-descriptor,
  // out request-id).  The path names the Odyssey object on whose behalf
  // the expectation is expressed; it must resolve to an installed warden.
  RequestResult Request(AppId app, const std::string& path, ResourceDescriptor descriptor);

  // Descriptor variant (Figure 3's note: "the request and tsop calls have
  // variants that identify Odyssey objects by file descriptors").
  RequestResult RequestFd(AppId app, OdysseyFd fd, ResourceDescriptor descriptor);

  // cancel(): discards a registered expectation.
  Status Cancel(RequestId id);

  // tsop(): type-specific operation on an Odyssey object.
  void Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
            Warden::TsopCallback done);

  // File-style access for types that support it.
  void Read(AppId app, const std::string& path, Warden::ReadCallback done);
  void Write(AppId app, const std::string& path, std::string data, Warden::WriteCallback done);

  // Current availability, for applications polling instead of registering.
  double CurrentLevel(AppId app, ResourceId resource) const;

  // Whether any bandwidth estimate exists yet (see
  // BandwidthStrategy::HasEstimate).
  bool HasBandwidthEstimate() const { return viceroy_.HasBandwidthEstimate(); }

  // --- Accessors ---

  Simulation* sim() { return sim_; }
  Link* link() { return link_; }
  Viceroy& viceroy() { return viceroy_; }
  const ObjectNamespace& object_namespace() const { return namespace_; }
  // Installed wardens, in install order.
  const std::vector<std::unique_ptr<Warden>>& wardens() const { return wardens_; }

 private:
  struct OpenObject {
    AppId app = 0;
    Warden* warden = nullptr;
    std::string relative_path;
  };

  // Looks up |fd| for |app|; null if unknown or owned by another app.
  const OpenObject* Lookup(AppId app, OdysseyFd fd) const;

  Simulation* sim_;
  Link* link_;
  Viceroy viceroy_;
  ConnectionObserver connection_observer_;
  RetryPolicy retry_policy_;
  FaultInjector* fault_injector_ = nullptr;
  ObjectNamespace namespace_;
  std::vector<std::unique_ptr<Warden>> wardens_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::map<OdysseyFd, OpenObject> open_objects_;
  OdysseyFd next_fd_ = 3;  // 0-2 taken, as tradition demands
};

}  // namespace odyssey

#endif  // SRC_CORE_ODYSSEY_CLIENT_H_
