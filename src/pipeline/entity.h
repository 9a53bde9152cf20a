// Entity modeling helpers (§5.1).
//
// A Host entity's journaled state is one flat field map holding every
// service under a stable per-service prefix ("svc.443/tcp.<field>"). This
// makes service add/change/remove natural delta operations and keeps the
// journal generic over entity types (Hosts, Web Properties, Certificates).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/record.h"
#include "storage/delta.h"

namespace censys::pipeline {

// Entity IDs. Hosts are keyed by IP, web properties by name, certificates
// by SHA-256 fingerprint.
std::string HostEntityId(IPv4Address ip);
std::string WebEntityId(std::string_view name);
std::string CertEntityId(std::string_view sha256_hex);

// "svc.<port>/<transport>." prefix for a service's fields.
std::string ServicePrefix(ServiceKey key);

// Projects one service's record into entity-level fields (prefix applied).
storage::FieldMap ServiceFields(const ServiceRecord& record);

// The service a host field belongs to ("svc.<port>/<transport>.<field>"
// on host `ip`); nullopt for a field outside every service.
std::optional<ServiceKey> ServiceKeyOf(std::string_view field,
                                       IPv4Address ip);

// Extracts the service keys present in an entity state.
std::vector<ServiceKey> ServicesIn(const storage::FieldMap& entity_state,
                                   IPv4Address ip);

// Rebuilds one service's record from entity state; nullopt if absent.
std::optional<ServiceRecord> RecordFrom(
    const storage::FieldMap& entity_state, ServiceKey key);

// The protocol label RecordFrom(entity_state, key) would carry, read from
// the one field in place; kUnknown when the service is absent.
proto::Protocol ServiceProtocol(const storage::FieldMap& entity_state,
                                ServiceKey key);

// Delta that inserts/updates the service (empty if nothing changed).
storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  const ServiceRecord& record);

// Same, against precomputed ServiceFields(record) — interrogation workers
// project records off-thread so the serial commit stage only diffs.
storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key,
                                  const storage::FieldMap& service_fields);

// Delta that removes every field of the service.
storage::Delta RemoveServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key);

}  // namespace censys::pipeline
