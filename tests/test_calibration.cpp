// Offline calibration: peak-bandwidth measurement and constant factors.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/calibration.hpp"

namespace tahoe::core {
namespace {

memsim::Machine half_bw() {
  return memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(256 * kMiB), 0.5,
                                       16 * kGiB),
      256 * kMiB);
}

TEST(Calibration, PeakBandwidthTracksDeviceRatio) {
  const CalibrationResult r = calibrate(half_bw());
  ASSERT_GT(r.bw_peak_dram, 0.0);
  ASSERT_GT(r.bw_peak_nvm, 0.0);
  // NVM has half the DRAM bandwidth; Eq. (1) should recover roughly that.
  EXPECT_NEAR(r.bw_peak_dram / r.bw_peak_nvm, 2.0, 0.4);
}

TEST(Calibration, PeakBandwidthNearHardwarePeak) {
  const memsim::Machine m = half_bw();
  const CalibrationResult r = calibrate(m);
  // The Eq. (1) estimator counts *instruction-level* accesses (pre-cache,
  // like the paper's load/store events), so its "bandwidth" exceeds the
  // device line bandwidth by up to the per-line access multiplicity (8 for
  // sequential doubles). It must stay within that envelope.
  EXPECT_GT(r.bw_peak_dram, 0.3 * m.tier(memsim::kDram).read_bw);
  EXPECT_LT(r.bw_peak_dram, 8.0 * m.tier(memsim::kDram).read_bw);
}

TEST(Calibration, ConstantFactorsAreSaneCorrections) {
  const CalibrationResult r = calibrate(half_bw());
  // measured/predicted: positive, within an order of magnitude of 1.
  EXPECT_GT(r.cf_bw, 0.1);
  EXPECT_LT(r.cf_bw, 10.0);
  EXPECT_GT(r.cf_lat, 0.1);
  EXPECT_LT(r.cf_lat, 10.0);
}

TEST(Calibration, DeterministicPerMachine) {
  const CalibrationResult a = calibrate(half_bw());
  const CalibrationResult b = calibrate(half_bw());
  EXPECT_DOUBLE_EQ(a.cf_bw, b.cf_bw);
  EXPECT_DOUBLE_EQ(a.cf_lat, b.cf_lat);
  EXPECT_DOUBLE_EQ(a.bw_peak_nvm, b.bw_peak_nvm);
}

TEST(Calibration, ToConstantsCarriesThresholds) {
  CalibrationResult r;
  r.cf_bw = 0.8;
  r.cf_lat = 1.2;
  r.bw_peak_nvm = 5e9;
  const ModelConstants mc = r.to_constants();
  EXPECT_DOUBLE_EQ(mc.cf_bw, 0.8);
  EXPECT_DOUBLE_EQ(mc.cf_lat, 1.2);
  // The paper's sensitivity thresholds: 80 % and 10 % of peak.
  EXPECT_DOUBLE_EQ(mc.t1, 0.80);
  EXPECT_DOUBLE_EQ(mc.t2, 0.10);
  EXPECT_DOUBLE_EQ(mc.bw_peak_nvm, 5e9);
}

TEST(Calibration, OptanePlatformCalibrates) {
  const CalibrationResult r =
      calibrate(memsim::machines::optane_platform(256 * kMiB));
  EXPECT_GT(r.bw_peak_nvm, 0.0);
  EXPECT_LT(r.bw_peak_nvm, r.bw_peak_dram);
}

}  // namespace
}  // namespace tahoe::core
