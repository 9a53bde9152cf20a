#include "pipeline/entity.h"

#include <charconv>

#include "core/strings.h"

namespace censys::pipeline {

std::string HostEntityId(IPv4Address ip) { return ip.ToString(); }

std::string WebEntityId(std::string_view name) {
  return "web:" + ToLower(name);
}

std::string CertEntityId(std::string_view sha256_hex) {
  return "cert:" + std::string(sha256_hex);
}

std::string ServicePrefix(ServiceKey key) {
  std::string prefix = "svc.";
  prefix += std::to_string(key.port);
  prefix += '/';
  prefix += censys::ToString(key.transport);
  prefix += '.';
  return prefix;
}

storage::FieldMap ServiceFields(const ServiceRecord& record) {
  const std::string prefix = ServicePrefix(record.key);
  storage::FieldMap out;
  for (const auto& [key, value] : record.ToFields()) {
    out.emplace(prefix + key, value);
  }
  return out;
}

std::optional<ServiceKey> ServiceKeyOf(std::string_view field,
                                       IPv4Address ip) {
  if (!StartsWith(field, "svc.")) return std::nullopt;
  const std::size_t dot = field.find('.', 4);
  if (dot == std::string_view::npos) return std::nullopt;
  // spec is "<port>/<transport>".
  const std::string_view spec = field.substr(4, dot - 4);
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  unsigned port = 0;
  const auto* begin = spec.data();
  if (std::from_chars(begin, begin + slash, port).ec != std::errc()) {
    return std::nullopt;
  }
  const Transport transport =
      spec.substr(slash + 1) == "udp" ? Transport::kUdp : Transport::kTcp;
  return ServiceKey{ip, static_cast<Port>(port), transport};
}

std::vector<ServiceKey> ServicesIn(const storage::FieldMap& entity_state,
                                   IPv4Address ip) {
  // A service's fields sort contiguously, so each key shows up as one run.
  std::vector<ServiceKey> keys;
  for (const auto& [field, value] : entity_state) {
    const std::optional<ServiceKey> key = ServiceKeyOf(field, ip);
    if (key.has_value() && (keys.empty() || keys.back() != *key)) {
      keys.push_back(*key);
    }
  }
  return keys;
}

std::optional<ServiceRecord> RecordFrom(
    const storage::FieldMap& entity_state, ServiceKey key) {
  const std::string prefix = ServicePrefix(key);
  storage::FieldMap fields;
  for (auto it = entity_state.lower_bound(prefix);
       it != entity_state.end() && StartsWith(it->first, prefix); ++it) {
    fields.emplace(it->first.substr(prefix.size()), it->second);
  }
  if (fields.empty()) return std::nullopt;
  return ServiceRecord::FromFields(key, fields);
}

proto::Protocol ServiceProtocol(const storage::FieldMap& entity_state,
                                ServiceKey key) {
  const auto it = entity_state.find(ServicePrefix(key) + "service.name");
  if (it == entity_state.end()) return proto::Protocol::kUnknown;
  return proto::FromName(it->second).value_or(proto::Protocol::kUnknown);
}

storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  const ServiceRecord& record) {
  return UpsertServiceDelta(entity_state, record.key, ServiceFields(record));
}

storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key,
                                  const storage::FieldMap& service_fields) {
  // Diffs the service's range of entity_state in place, uncopied.
  const std::string prefix = ServicePrefix(key);
  const auto begin = entity_state.lower_bound(prefix);
  auto end = begin;
  while (end != entity_state.end() && StartsWith(end->first, prefix)) ++end;
  return storage::ComputeDelta(begin, end, service_fields);
}

storage::Delta RemoveServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key) {
  const std::string prefix = ServicePrefix(key);
  storage::Delta delta;
  for (auto it = entity_state.lower_bound(prefix);
       it != entity_state.end() && StartsWith(it->first, prefix); ++it) {
    delta.ops.push_back(
        {storage::FieldOp::Kind::kRemove, it->first, {}});
  }
  return delta;
}

}  // namespace censys::pipeline
