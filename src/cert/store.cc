#include "cert/store.h"

namespace censys::cert {

CertificateRecord& CertificateStore::Upsert(const Certificate& certificate,
                                            std::string_view sha256_hex,
                                            Timestamp now) {
  auto it = records_.lower_bound(sha256_hex);
  if (it != records_.end() && it->first == sha256_hex) return it->second;
  it = records_.emplace_hint(it, std::string(sha256_hex), CertificateRecord{});
  CertificateRecord& record = it->second;
  record.certificate = certificate;
  record.first_seen = now;
  record.lints = Lint(certificate);
  record.status = Validate(certificate, roots_, crls_, now);
  record.last_validated = now;
  return record;
}

void CertificateStore::ObserveFromCt(const CtEntry& entry, Timestamp now) {
  CertificateRecord& record =
      Upsert(entry.certificate, entry.certificate.Sha256Hex(), now);
  record.seen_in_ct = true;
}

void CertificateStore::ObserveFromScan(const Certificate& certificate,
                                       std::string_view sha256_hex,
                                       ServiceKey presented_by,
                                       Timestamp now) {
  CertificateRecord& record = Upsert(certificate, sha256_hex, now);
  record.seen_in_scan = true;
  record.presented_by.insert(presented_by.Pack());
}

std::size_t CertificateStore::RevalidateAll(Timestamp now) {
  std::size_t changed = 0;
  for (auto& [fingerprint, record] : records_) {
    const ValidationStatus status =
        Validate(record.certificate, roots_, crls_, now);
    if (status != record.status) {
      record.status = status;
      ++changed;
    }
    record.last_validated = now;
  }
  return changed;
}

const CertificateRecord* CertificateStore::Get(
    std::string_view sha256_hex) const {
  const auto it = records_.find(sha256_hex);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<ServiceKey> CertificateStore::PresentedBy(
    std::string_view sha256_hex) const {
  std::vector<ServiceKey> out;
  if (const CertificateRecord* record = Get(sha256_hex)) {
    for (std::uint64_t packed : record->presented_by) {
      out.push_back(ServiceKey::Unpack(packed));
    }
  }
  return out;
}

void CertificateStore::ForEach(
    const std::function<void(std::string_view, const CertificateRecord&)>& fn)
    const {
  for (const auto& [fingerprint, record] : records_) fn(fingerprint, record);
}

CertificateStore::Stats CertificateStore::ComputeStats() const {
  Stats stats;
  for (const auto& [fingerprint, record] : records_) {
    ++stats.by_status[record.status];
    if (!record.lints.errors.empty()) ++stats.with_lint_errors;
    if (record.seen_in_ct && !record.seen_in_scan) ++stats.ct_only;
    if (record.seen_in_scan && !record.seen_in_ct) ++stats.scan_only;
  }
  return stats;
}

}  // namespace censys::cert
