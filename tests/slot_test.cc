#include "core/slot.h"

#include <gtest/gtest.h>

#include <vector>

namespace psens {
namespace {

std::vector<Sensor> ThreeSensors() {
  std::vector<Sensor> sensors;
  SensorProfile profile;
  profile.base_price = 10.0;
  profile.lifetime = 5;
  for (int i = 0; i < 3; ++i) sensors.emplace_back(i, profile);
  sensors[0].SetPosition(Point{5, 5}, true);    // inside
  sensors[1].SetPosition(Point{50, 50}, true);  // outside region
  sensors[2].SetPosition(Point{6, 6}, false);   // absent
  return sensors;
}

TEST(BuildSlotContextTest, FiltersByRegionAndAvailability) {
  const std::vector<Sensor> sensors = ThreeSensors();
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, /*time=*/3, /*dmax=*/5.0);
  ASSERT_EQ(slot.sensors.size(), 1u);
  EXPECT_EQ(slot.sensors[0].sensor_id, 0);
  EXPECT_EQ(slot.sensors[0].index, 0);
  EXPECT_EQ(slot.time, 3);
  EXPECT_DOUBLE_EQ(slot.dmax, 5.0);
}

TEST(BuildSlotContextTest, AnnouncedCostComesFromSensorModel) {
  std::vector<Sensor> sensors = ThreeSensors();
  // Burn readings so the linear model would matter; with the fixed model
  // the announced price stays at base.
  sensors[0].RecordReading(0);
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 1, 5.0);
  ASSERT_EQ(slot.sensors.size(), 1u);
  EXPECT_DOUBLE_EQ(slot.sensors[0].cost, sensors[0].Cost(1));
}

TEST(BuildSlotContextTest, WornOutSensorExcluded) {
  std::vector<Sensor> sensors = ThreeSensors();
  for (int t = 0; t < 5; ++t) sensors[0].RecordReading(t);  // lifetime 5
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 6, 5.0);
  EXPECT_TRUE(slot.sensors.empty());
}

TEST(BuildSlotContextTest, IndicesAreDense) {
  std::vector<Sensor> sensors = ThreeSensors();
  sensors[1].SetPosition(Point{7, 7}, true);  // now also inside
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 0, 5.0);
  ASSERT_EQ(slot.sensors.size(), 2u);
  EXPECT_EQ(slot.sensors[0].index, 0);
  EXPECT_EQ(slot.sensors[1].index, 1);
  EXPECT_EQ(slot.sensors[1].sensor_id, 1);
}

TEST(BuildSlotContextTest, MapsEveryRegistryId) {
  const SlotContext slot =
      BuildSlotContext(ThreeSensors(), Rect{0, 0, 10, 10}, 0, 5.0);
  EXPECT_EQ(slot.slot_pos, (std::vector<int>{0, -1, -1}));
}

// SlotIndexOf answers from the id -> slot map when the context has one
// and from a binary search of the members otherwise; both agree for
// members, non-members, negative ids and ids past the map.
TEST(SlotIndexOfTest, MapLookupMatchesSortedSearch) {
  SlotContext searched;
  for (int id : {0, 3, 4, 9, 17}) {
    SlotSensor s;
    s.index = static_cast<int>(searched.sensors.size());
    s.sensor_id = id;
    searched.sensors.push_back(s);
  }
  SlotContext mapped = searched;
  MapSlotIds(mapped, 20);
  ASSERT_EQ(mapped.slot_pos.size(), 20u);
  ASSERT_TRUE(searched.slot_pos.empty());
  for (int id = -2; id < 25; ++id) {
    int want = -1;
    for (const SlotSensor& s : searched.sensors) {
      if (s.sensor_id == id) want = s.index;
    }
    EXPECT_EQ(searched.SlotIndexOf(id), want) << "id " << id;
    EXPECT_EQ(mapped.SlotIndexOf(id), want) << "id " << id;
  }
}

TEST(SlotQualityTest, MatchesReadingQuality) {
  SlotSensor s;
  s.location = Point{3, 4};
  s.inaccuracy = 0.1;
  s.trust = 0.8;
  // distance 5 from origin, dmax 10.
  EXPECT_DOUBLE_EQ(SlotQuality(s, Point{0, 0}, 10.0), 0.9 * 0.5 * 0.8);
  EXPECT_DOUBLE_EQ(SlotQuality(s, Point{0, 0}, 4.0), 0.0);
}

}  // namespace
}  // namespace psens
