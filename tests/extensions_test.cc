// Tests for the operational-surface modules: the opt-out exclusion list,
// the certificate store, secondary pivot tables, and the snapshot export
// container.
#include <gtest/gtest.h>

#include "cert/store.h"
#include "scan/exclusion.h"
#include "search/export.h"
#include "search/pivots.h"

namespace censys {
namespace {

// ------------------------------------------------------------------ exclusion

TEST(ExclusionListTest, ExcludesAndExpires) {
  scan::ExclusionList list;
  ASSERT_TRUE(list.Exclude(*Cidr::Parse("10.0.0.0/24"), "KU Leuven NOC",
                           Timestamp{0}));
  EXPECT_TRUE(list.IsExcluded(*IPv4Address::Parse("10.0.0.77"), Timestamp{0}));
  EXPECT_FALSE(list.IsExcluded(*IPv4Address::Parse("10.0.1.0"), Timestamp{0}));

  // "We expire exclusion requests after one year."
  EXPECT_EQ(list.ExpireOld(Timestamp::FromDays(200)), 0u);
  EXPECT_TRUE(
      list.IsExcluded(*IPv4Address::Parse("10.0.0.77"), Timestamp::FromDays(200)));
  EXPECT_EQ(list.ExpireOld(Timestamp::FromDays(366)), 1u);
  EXPECT_FALSE(
      list.IsExcluded(*IPv4Address::Parse("10.0.0.77"), Timestamp::FromDays(366)));
}

TEST(ExclusionListTest, RequiresVerifiedRequester) {
  scan::ExclusionList list;
  EXPECT_FALSE(list.Exclude(*Cidr::Parse("10.0.0.0/8"), "", Timestamp{0}));
  EXPECT_FALSE(list.IsExcluded(*IPv4Address::Parse("10.1.2.3"), Timestamp{0}));
}

TEST(ExclusionListTest, FractionAndOrganizations) {
  scan::ExclusionList list;
  list.Exclude(*Cidr::Parse("0.0.16.0/24"), "Org A", Timestamp{0});
  list.Exclude(*Cidr::Parse("0.0.32.0/24"), "Org B", Timestamp{0});
  list.Exclude(*Cidr::Parse("0.0.33.0/24"), "Org B", Timestamp{0});
  EXPECT_EQ(list.organization_count(), 2u);
  EXPECT_DOUBLE_EQ(list.ExcludedFraction(1u << 16), 768.0 / 65536.0);
}

// ----------------------------------------------------------------- cert store

class CertStoreTest : public ::testing::Test {
 protected:
  CertStoreTest()
      : roots_(cert::RootStore::Default()), store_(roots_, crls_) {}

  cert::RootStore roots_;
  cert::CrlStore crls_;
  cert::CertificateStore store_;
};

TEST_F(CertStoreTest, ScanAndCtObservationsMerge) {
  const cert::Certificate c =
      cert::SynthesizeCertificate(5, "www.example.com", Timestamp{0});
  store_.ObserveFromScan(c, {IPv4Address(1), 443, Transport::kTcp},
                         Timestamp{10});
  store_.ObserveFromCt(cert::CtEntry{0, Timestamp{5}, c}, Timestamp{20});

  ASSERT_EQ(store_.size(), 1u);
  const cert::CertificateRecord* record = store_.Get(c.Sha256Hex());
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->seen_in_scan);
  EXPECT_TRUE(record->seen_in_ct);
  EXPECT_EQ(record->first_seen, Timestamp{10});
}

TEST_F(CertStoreTest, PresentedByPivot) {
  const cert::Certificate c =
      cert::SynthesizeCertificate(9, "shared.example.com", Timestamp{0});
  // The same certificate presented by three endpoints (a C2 kit pattern).
  for (std::uint32_t ip : {100u, 200u, 300u}) {
    store_.ObserveFromScan(c, {IPv4Address(ip), 443, Transport::kTcp},
                           Timestamp{0});
  }
  const auto endpoints = store_.PresentedBy(c.Sha256Hex());
  EXPECT_EQ(endpoints.size(), 3u);
  EXPECT_TRUE(store_.PresentedBy(std::string(64, '0')).empty());
}

TEST_F(CertStoreTest, RevalidationCatchesExpiry) {
  cert::Certificate c;
  c.subject_cn = "soon.example.com";
  c.san_dns = {"soon.example.com"};
  c.issuer = "SimCA Encrypt R3";
  c.not_before = Timestamp{0};
  c.not_after = Timestamp::FromDays(30);
  // Pick a serial outside the synthetic baseline-CRL population so the
  // only status change in play is expiry.
  c.serial = 424242;
  while (crls_.RevokedAt(c.issuer, c.serial).has_value()) ++c.serial;
  store_.ObserveFromScan(c, {IPv4Address(1), 443, Transport::kTcp},
                         Timestamp{0});
  EXPECT_EQ(store_.Get(c.Sha256Hex())->status,
            cert::ValidationStatus::kTrusted);

  // Daily revalidation flips it to expired after not_after.
  EXPECT_EQ(store_.RevalidateAll(Timestamp::FromDays(31)), 1u);
  EXPECT_EQ(store_.Get(c.Sha256Hex())->status,
            cert::ValidationStatus::kExpired);
  // Idempotent afterwards.
  EXPECT_EQ(store_.RevalidateAll(Timestamp::FromDays(32)), 0u);
}

TEST_F(CertStoreTest, StatsBreakdown) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const cert::Certificate c = cert::SynthesizeCertificate(
        seed, "h" + std::to_string(seed) + ".example.com", Timestamp{0});
    if (seed % 3 == 0) {
      store_.ObserveFromCt(cert::CtEntry{seed, Timestamp{0}, c}, Timestamp{0});
    } else {
      store_.ObserveFromScan(c, {IPv4Address(static_cast<std::uint32_t>(seed)),
                                 443, Transport::kTcp},
                             Timestamp{0});
    }
  }
  auto stats = store_.ComputeStats();
  EXPECT_GT(stats.by_status[cert::ValidationStatus::kTrusted], 100u);
  EXPECT_GT(stats.ct_only, 50u);
  EXPECT_GT(stats.scan_only, 100u);
  EXPECT_GT(stats.with_lint_errors, 0u);
}

// --------------------------------------------------------------------- pivots

TEST(PivotIndexTest, ObserveAndQuery) {
  search::PivotIndex pivots;
  const ServiceKey a{IPv4Address(1), 443, Transport::kTcp};
  const ServiceKey b{IPv4Address(2), 8443, Transport::kTcp};
  pivots.Observe(a, "certA", "jarm1");
  pivots.Observe(b, "certA", "jarm1");
  EXPECT_EQ(pivots.EndpointsWithCert("certA").size(), 2u);
  EXPECT_EQ(pivots.EndpointsWithJarm("jarm1").size(), 2u);
  EXPECT_TRUE(pivots.EndpointsWithCert("other").empty());
}

TEST(PivotIndexTest, ReobservationReplacesAttribution) {
  search::PivotIndex pivots;
  const ServiceKey key{IPv4Address(1), 443, Transport::kTcp};
  pivots.Observe(key, "certOld", "jarmOld");
  pivots.Observe(key, "certNew", "jarmNew");  // certificate rotated
  EXPECT_TRUE(pivots.EndpointsWithCert("certOld").empty());
  EXPECT_EQ(pivots.EndpointsWithCert("certNew").size(), 1u);
  EXPECT_EQ(pivots.cert_count(), 1u);
}

TEST(PivotIndexTest, ForgetRemovesEverywhere) {
  search::PivotIndex pivots;
  const ServiceKey key{IPv4Address(1), 443, Transport::kTcp};
  pivots.Observe(key, "cert", "jarm");
  pivots.Forget(key);
  EXPECT_TRUE(pivots.EndpointsWithCert("cert").empty());
  EXPECT_EQ(pivots.jarm_count(), 0u);
  pivots.Forget(key);  // idempotent
}

TEST(PivotIndexTest, RareJarmClusters) {
  search::PivotIndex pivots;
  // A common stack on 50 hosts and a rare one on 4.
  for (std::uint32_t ip = 0; ip < 50; ++ip) {
    pivots.Observe({IPv4Address(1000 + ip), 443, Transport::kTcp}, "",
                   "common");
  }
  for (std::uint32_t ip = 0; ip < 4; ++ip) {
    pivots.Observe({IPv4Address(2000 + ip), 443, Transport::kTcp}, "", "rare");
  }
  const auto clusters = pivots.RareJarmClusters(3, 40);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].first, "rare");
  EXPECT_EQ(clusters[0].second, 4u);
}

// --------------------------------------------------------------------- export

TEST(SnapshotExportTest, RoundTrips) {
  search::SnapshotWriter writer(42, "hosts");
  std::vector<search::ExportRecord> records;
  for (int i = 0; i < 500; ++i) {
    search::ExportRecord record;
    record.entity_id = "10.0.0." + std::to_string(i);
    record.fields = {{"svc.80/tcp.service.name", "HTTP"},
                     {"svc.80/tcp.service.banner",
                      "Server: nginx/" + std::to_string(i)}};
    writer.Append(record);
    records.push_back(std::move(record));
  }
  const std::string bytes = writer.Finish();

  search::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(bytes, &error)) << error;
  EXPECT_EQ(reader.snapshot_day(), 42);
  EXPECT_EQ(reader.dataset(), "hosts");
  ASSERT_EQ(reader.records().size(), records.size());
  EXPECT_EQ(reader.records()[0], records[0]);
  EXPECT_EQ(reader.records()[499], records[499]);
}

TEST(SnapshotExportTest, EmptySnapshotIsValid) {
  search::SnapshotWriter writer(1, "empty");
  const std::string bytes = writer.Finish();
  search::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(bytes, &error)) << error;
  EXPECT_TRUE(reader.records().empty());
}

TEST(SnapshotExportTest, DetectsCorruption) {
  search::SnapshotWriter writer(1, "hosts");
  for (int i = 0; i < 100; ++i) {
    writer.Append({"e" + std::to_string(i), {{"k", "v"}}});
  }
  std::string bytes = writer.Finish();

  search::SnapshotReader reader;
  std::string error;

  // Flip a byte inside a record block.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(reader.Open(corrupted, &error));
  EXPECT_FALSE(error.empty());

  // Truncate.
  EXPECT_FALSE(reader.Open(std::string_view(bytes).substr(0, bytes.size() - 3),
                           &error));

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(reader.Open(bad_magic, &error));
  EXPECT_EQ(error, "bad magic");
}

}  // namespace
}  // namespace censys
