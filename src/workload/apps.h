// Background application models (paper Table I).
//
// Each generator reproduces the header-level signature that makes its
// application easy or hard for the detector:
//
//   Heavy overwriting   — DataWiping (DoD 5220.22-M: 7 write passes per
//                         read, very long runs -> huge OWIO but low OWST,
//                         long AVGWIO), Database (hot-page rewrites + WAL
//                         appends + long checkpoint runs), CloudStorage
//                         (bursty sync with small metadata overwrites).
//   IO-intensive        — IoStress (random mix + full-region sweeps).
//   CPU-intensive       — Compression, VideoEncode (streaming read ->
//                         streaming fresh write; they matter mostly by
//                         slowing a concurrent ransomware down).
//   Normal              — Install, VideoDecode, OutlookSync, P2pDownload,
//                         WebSurfing, SqliteMessenger, OsUpdate.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "common/time.h"

namespace insider::wl {

enum class AppKind {
  kNone,
  kDataWiping,
  kDatabase,
  kCloudStorage,
  kIoStress,
  kCompression,
  kVideoEncode,
  kVideoDecode,
  kInstall,
  kOutlookSync,
  kP2pDownload,
  kWebSurfing,
  kSqliteMessenger,
  kOsUpdate,
  /// In-place disk defragmenter: long read-then-rewrite compaction runs —
  /// the third long-run overwriter the paper's AVGWIO rationale names
  /// (wiping, defragmentation, DB updates). Not part of Table I.
  kDefrag,
};

/// The four background classes of Fig. 7.
enum class AppCategory {
  kNone,
  kHeavyOverwriting,
  kIoIntensive,
  kCpuIntensive,
  kNormal,
};

/// Fixed rotation of Table-I backgrounds covering every Fig. 7 category; the
/// multi-tenant runs give their i-th benign tenant entry i % size().
inline constexpr std::array<AppKind, 8> kTenantApps = {
    AppKind::kWebSurfing,      AppKind::kP2pDownload,
    AppKind::kOutlookSync,     AppKind::kSqliteMessenger,
    AppKind::kInstall,         AppKind::kOsUpdate,
    AppKind::kVideoDecode,     AppKind::kCompression,
};

const char* AppKindName(AppKind kind);
AppKind AppKindByName(std::string_view name);
AppCategory CategoryOf(AppKind kind);
const char* AppCategoryName(AppCategory category);
std::vector<AppKind> AllAppKinds();

struct AppParams {
  SimTime start_time = 0;
  SimTime duration = Seconds(60);
  /// LBA region this application owns (its files / database / scratch).
  Lba region_start = 0;
  Lba region_blocks = 1 << 18;  ///< 1 GB default
  /// Throughput scale: 1.0 = the model's nominal rate.
  double intensity = 1.0;
};

struct AppTrace {
  std::string name;
  std::vector<IoRequest> requests;  ///< time-sorted
};

AppTrace GenerateApp(AppKind kind, const AppParams& params, Rng& rng);

/// How much a CPU/IO-hungry app starves a concurrent ransomware: the factor
/// applied to RansomwareProfile::slowdown in mixed scenarios (paper §V-B:
/// "they interfered with ransomware to slow down the speed of overwriting").
double RansomwareSlowdownUnder(AppKind kind);

}  // namespace insider::wl
