"""Per-device fleet wrapper: specs, power modes, prefix cache, crashes."""

import pytest

from repro.engine.request import GenerationRequest
from repro.fleet import FLEET_MIXES, DeviceSpec, FleetDevice, build_fleet


def _request(i=0, prompt=100, output=64):
    return GenerationRequest(i, prompt, output)


def _serve(device, count=4, gap_s=1.0):
    for i in range(count):
        device.inject(_request(i), arrival_s=i * gap_s)
    device.drain()
    report = device.report()
    device.release()
    return report


class TestDeviceSpec:
    def test_rejects_unknown_power_mode(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="edge-00", power_mode="11W")

    def test_label_names_model_and_mode(self):
        spec = DeviceSpec(name="edge-00", power_mode="30W")
        assert spec.label == "dsr1-qwen-1.5b@30W"


class TestPowerModes:
    def test_capped_mode_is_slower_than_maxn(self):
        fast = _serve(FleetDevice(DeviceSpec(name="a", power_mode="MAXN")))
        slow = _serve(FleetDevice(DeviceSpec(name="a", power_mode="15W")))
        assert slow.wallclock_s > fast.wallclock_s
        assert slow.completed == fast.completed == 4

    def test_predictions_price_the_scaled_soc(self):
        # The ETA estimate must be honest about power capping: the same
        # request is predicted slower on a capped box.
        fast = FleetDevice(DeviceSpec(name="a", power_mode="MAXN"))
        slow = FleetDevice(DeviceSpec(name="b", power_mode="30W"))
        probe = _request(0)
        assert (slow.predicted_completion_s(probe, 0.0)
                > fast.predicted_completion_s(probe, 0.0))
        fast.release()
        slow.release()


class TestPrefixCache:
    def _sticky(self, mb):
        device = FleetDevice(DeviceSpec(name="a", prefix_cache_mb=mb))
        for i in range(4):
            device.inject(_request(i), arrival_s=float(i),
                          session="s0", prefix_tokens=64)
        device.drain()
        device.report()
        hits, misses = device.run.prefix_hits, device.run.prefix_misses
        device.release()
        return hits, misses

    def test_repeat_session_hits_after_first_miss(self):
        hits, misses = self._sticky(mb=64.0)
        assert misses == 1 and hits == 3

    def test_no_cache_means_no_hits(self):
        hits, misses = self._sticky(mb=0.0)
        assert hits == 0

    def test_cached_prefix_reduces_wallclock(self):
        # Long prompts, so the suffix-only prefill saving dominates the
        # multi-token epoch quantization noise.
        def run(mb):
            device = FleetDevice(DeviceSpec(name="a", prefix_cache_mb=mb))
            for i in range(4):
                device.inject(_request(i, prompt=2000), arrival_s=2.0 * i,
                              session="s0", prefix_tokens=1600)
            device.drain()
            report = device.report()
            device.release()
            return report

        assert run(256.0).wallclock_s < run(0.0).wallclock_s


class TestCrashes:
    def test_crash_evacuates_queued_work(self):
        device = FleetDevice(DeviceSpec(name="a"))
        for i in range(4):
            device.inject(_request(i), arrival_s=0.0)
        orphans = device.crash(0.0, until=5.0)
        assert len(orphans) == 4
        assert device.evacuated == 4 and device.crashes == 1
        assert device.is_down(1.0) and not device.is_down(5.0)
        device.drain()
        assert device.report().completed == 0
        device.release()

    def test_orphans_keep_arrival_and_deadline(self):
        device = FleetDevice(DeviceSpec(name="a"))
        device.inject(_request(0), arrival_s=0.25, deadline_s=9.0)
        (request, state), = device.crash(1.0, until=4.0)
        assert request.request_id == 0
        assert state.first_arrival_s == 0.25
        assert state.deadline_s == 9.0
        device.release()

    def test_crash_while_down_extends_outage(self):
        device = FleetDevice(DeviceSpec(name="a"))
        assert device.crash(0.0, until=5.0) == []
        assert device.crash(2.0, until=8.0) == []
        assert device.down_until() == 8.0
        assert device.crashes == 2
        device.release()

    def test_no_energy_accrues_while_down(self):
        device = FleetDevice(DeviceSpec(name="a"))
        device.crash(0.0, until=10.0)
        device.advance_to(7.0)
        device.drain()
        assert device.report().energy_joules == 0.0
        device.release()


class TestCrashMidDecode:
    """What a crash does to a request it catches mid-decode: the cut
    lands on the atomic epoch boundary past the crash time, the partial
    work stays priced on the crashed device, and the prefix cache
    survives the outage."""

    def _cut(self, t=3.0):
        # One sticky turn (2000-token prompt, 1600-token shared prefix)
        # still decoding at 3.0 s, crashed there until 10.0 s.
        device = FleetDevice(DeviceSpec(name="a", prefix_cache_mb=256.0))
        device.inject(_request(0, prompt=2000, output=256), arrival_s=0.0,
                      session="s0", prefix_tokens=1600)
        device.advance_to(t)
        return device

    def test_cut_lands_on_the_epoch_boundary(self):
        device = self._cut()
        # The decode step in flight at 3.0 s runs to its end; a later
        # horizon inside that step stops at the same boundary.
        assert device.run.now == pytest.approx(3.0186, abs=1e-4)
        twin = self._cut(3.01)
        assert twin.run.now == device.run.now
        twin.release()
        assert len(device.run.live) == 1 and not device.run.served
        (request, state), = device.crash(3.0, until=10.0)
        assert request.request_id == 0
        assert state.first_arrival_s == 0.0
        assert device.run.now == 10.0
        device.release()

    def test_orphan_partial_work_keeps_its_energy(self):
        device = self._cut()
        spent = device.run.energy
        assert spent == pytest.approx(15.09, abs=0.01)
        device.crash(3.0, until=10.0)
        device.advance_to(7.0)
        device.drain()
        report = device.report()
        assert report.completed == 0
        assert report.energy_joules == spent
        device.release()

    def test_prefix_cache_survives_the_outage(self):
        device = self._cut()
        device.crash(3.0, until=10.0)
        device.inject(_request(1, prompt=2000, output=256), arrival_s=10.0,
                      session="s0", prefix_tokens=1600)
        device.drain()
        assert device.report().completed == 1
        # The crashed turn's admission missed; the first turn after
        # recovery finds the prefix still resident.
        assert (device.run.prefix_misses, device.run.prefix_hits) == (1, 1)
        device.release()


class TestRoutingSignals:
    def test_outstanding_counts_queued_work(self):
        device = FleetDevice(DeviceSpec(name="a"))
        assert device.outstanding_requests == 0
        device.inject(_request(0), arrival_s=0.0)
        device.inject(_request(1), arrival_s=0.0)
        assert device.outstanding_requests == 2
        assert device.outstanding_decode_tokens() > 0
        device.release()

    def test_predicted_completion_grows_with_backlog(self):
        idle = FleetDevice(DeviceSpec(name="a"))
        busy = FleetDevice(DeviceSpec(name="b"))
        for i in range(6):
            busy.inject(_request(i), arrival_s=0.0)
        probe = _request(99)
        assert (busy.predicted_completion_s(probe, 0.0)
                > idle.predicted_completion_s(probe, 0.0))
        idle.release()
        busy.release()

    def test_downtime_penalizes_prediction(self):
        device = FleetDevice(DeviceSpec(name="a"))
        base = device.predicted_completion_s(_request(0), 0.0)
        device.crash(0.0, until=20.0)
        assert device.predicted_completion_s(_request(0), 0.0) >= base + 19.0
        device.release()


class TestBuildFleet:
    def test_mix_cycles_power_modes(self):
        fleet = build_fleet(4, mix="balanced")
        assert [d.spec.power_mode for d in fleet] == \
            ["MAXN", "30W", "MAXN", "30W"]
        for device in fleet:
            device.release()

    def test_rejects_unknown_mix_and_bad_count(self):
        with pytest.raises(ValueError):
            build_fleet(2, mix="turbo")
        with pytest.raises(ValueError):
            build_fleet(0)

    def test_every_named_mix_builds(self):
        for mix in FLEET_MIXES:
            for device in build_fleet(2, mix=mix):
                device.release()
