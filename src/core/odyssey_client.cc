#include "src/core/odyssey_client.h"

#include <utility>

namespace odyssey {

OdysseyClient::OdysseyClient(Simulation* sim, Link* link,
                             std::unique_ptr<BandwidthStrategy> strategy,
                             Duration upcall_latency)
    : sim_(sim), link_(link), viceroy_(sim, std::move(strategy), upcall_latency) {}

OdysseyClient::~OdysseyClient() {
  for (const auto& endpoint : endpoints_) {
    viceroy_.DetachConnection(endpoint.get());
  }
}

Warden* OdysseyClient::InstallWarden(std::unique_ptr<Warden> warden) {
  Warden* raw = warden.get();
  const Status status = namespace_.Install(raw);
  if (!status.ok()) {
    return nullptr;
  }
  wardens_.push_back(std::move(warden));
  raw->Attach(this);
  return raw;
}

AppId OdysseyClient::RegisterApplication(std::string name) {
  return viceroy_.RegisterApplication(std::move(name));
}

Endpoint* OdysseyClient::OpenConnection(AppId app, const std::string& service_name) {
  endpoints_.push_back(std::make_unique<Endpoint>(sim_, link_, service_name));
  Endpoint* endpoint = endpoints_.back().get();
  endpoint->set_retry_policy(retry_policy_);
  endpoint->set_fault_injector(fault_injector_);
  viceroy_.AttachConnection(app, endpoint);
  if (connection_observer_) {
    connection_observer_(endpoint, service_name);
  }
  return endpoint;
}

void OdysseyClient::set_retry_policy(const RetryPolicy& policy) {
  retry_policy_ = policy;
  for (auto& endpoint : endpoints_) {
    endpoint->set_retry_policy(policy);
  }
}

void OdysseyClient::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  for (auto& endpoint : endpoints_) {
    endpoint->set_fault_injector(injector);
  }
}

RequestResult OdysseyClient::Request(AppId app, ResourceDescriptor descriptor) {
  return viceroy_.Request(app, std::move(descriptor));
}

RequestResult OdysseyClient::Request(AppId app, const std::string& path,
                                     ResourceDescriptor descriptor) {
  ObjectNamespace::Resolution resolution;
  if (!namespace_.Resolve(path, &resolution).ok()) {
    return RequestResult{};  // !ok, level 0: not an Odyssey object
  }
  return viceroy_.Request(app, std::move(descriptor));
}

RequestResult OdysseyClient::RequestFd(AppId app, OdysseyFd fd, ResourceDescriptor descriptor) {
  if (Lookup(app, fd) == nullptr) {
    return RequestResult{};
  }
  return viceroy_.Request(app, std::move(descriptor));
}

Status OdysseyClient::Cancel(RequestId id) { return viceroy_.Cancel(id); }

void OdysseyClient::Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
                         Warden::TsopCallback done) {
  ObjectNamespace::Resolution resolution;
  const Status status = namespace_.Resolve(path, &resolution);
  if (!status.ok()) {
    done(status, "");
    return;
  }
  resolution.warden->Tsop(app, resolution.relative_path, opcode, in, std::move(done));
}

void OdysseyClient::Read(AppId app, const std::string& path, Warden::ReadCallback done) {
  ObjectNamespace::Resolution resolution;
  const Status status = namespace_.Resolve(path, &resolution);
  if (!status.ok()) {
    done(status, "");
    return;
  }
  resolution.warden->Read(app, resolution.relative_path, std::move(done));
}

void OdysseyClient::Write(AppId app, const std::string& path, std::string data,
                          Warden::WriteCallback done) {
  ObjectNamespace::Resolution resolution;
  const Status status = namespace_.Resolve(path, &resolution);
  if (!status.ok()) {
    done(status);
    return;
  }
  resolution.warden->Write(app, resolution.relative_path, std::move(data), std::move(done));
}

double OdysseyClient::CurrentLevel(AppId app, ResourceId resource) const {
  return viceroy_.CurrentLevel(app, resource);
}

OdysseyClient::OpenResult OdysseyClient::Open(AppId app, const std::string& path) {
  ObjectNamespace::Resolution resolution;
  const Status status = namespace_.Resolve(path, &resolution);
  if (!status.ok()) {
    return OpenResult{status, -1};
  }
  const OdysseyFd fd = next_fd_++;
  open_objects_[fd] = OpenObject{app, resolution.warden, resolution.relative_path};
  return OpenResult{OkStatus(), fd};
}

Status OdysseyClient::Close(AppId app, OdysseyFd fd) {
  const auto it = open_objects_.find(fd);
  if (it == open_objects_.end() || it->second.app != app) {
    return InvalidArgumentError("bad descriptor");
  }
  open_objects_.erase(it);
  return OkStatus();
}

const OdysseyClient::OpenObject* OdysseyClient::Lookup(AppId app, OdysseyFd fd) const {
  const auto it = open_objects_.find(fd);
  if (it == open_objects_.end() || it->second.app != app) {
    return nullptr;
  }
  return &it->second;
}

void OdysseyClient::TsopFd(AppId app, OdysseyFd fd, int opcode, const std::string& in,
                           Warden::TsopCallback done) {
  const OpenObject* object = Lookup(app, fd);
  if (object == nullptr) {
    done(InvalidArgumentError("bad descriptor"), "");
    return;
  }
  object->warden->Tsop(app, object->relative_path, opcode, in, std::move(done));
}

void OdysseyClient::ReadFd(AppId app, OdysseyFd fd, Warden::ReadCallback done) {
  const OpenObject* object = Lookup(app, fd);
  if (object == nullptr) {
    done(InvalidArgumentError("bad descriptor"), "");
    return;
  }
  object->warden->Read(app, object->relative_path, std::move(done));
}

void OdysseyClient::WriteFd(AppId app, OdysseyFd fd, std::string data,
                            Warden::WriteCallback done) {
  const OpenObject* object = Lookup(app, fd);
  if (object == nullptr) {
    done(InvalidArgumentError("bad descriptor"));
    return;
  }
  object->warden->Write(app, object->relative_path, std::move(data), std::move(done));
}

}  // namespace odyssey
