"""Retired power cycles are freed by reference counting alone.

Every boot builds a fresh Symbian substrate (kernel, bus, servers,
RDebug) and logger daemon (scheduler plus four active objects), each a
knot of reference cycles while it runs.  Retiring them must break those
cycles, so that with cyclic GC suspended -- as it is across a whole
campaign -- nothing of a finished power cycle stays resident.

Two angles:

* every exit path, object by object: with GC disabled, weakrefs to the
  retired runtime and daemon are dead the moment the call returns;
* whole campaigns: a run under ``gc.DEBUG_SAVEALL`` leaves
  ``gc.garbage`` empty.  Each run's products (the campaign result, or
  the fleet a shard task built) are held while collecting, so only what
  the run dropped can show up.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.core.engine import Simulator
from repro.core.rand import RandomStreams
from repro.experiments import shard as shard_module
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import ShardTask, plan_shards
from repro.logger.transfer import CollectionServer
from repro.phone.device import STATE_FROZEN, STATE_OFF, SmartPhone
from repro.phone.fleet import Fleet
from repro.phone.profiles import make_profile
from repro.robustness import FaultPlan, FaultyLink
from repro.symbian.errors import AccessViolation, PanicRaised


@pytest.fixture()
def gc_off():
    """Cyclic GC disabled for the test body, restored afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture()
def phone(gc_off):
    sim = Simulator()
    profile = make_profile("phone-00", RandomStreams(5).fork("phone-00"))
    return SmartPhone(sim, profile)


def _exercise(phone: SmartPhone) -> None:
    """Drive the live runtime through apps, activities and a panic, so
    every component holds state when it is retired."""
    phone.sim.run_until(phone.sim.now + 30.0)
    phone.open_app("Camera")
    phone.open_app("Clock")
    phone.close_app("Clock")
    if phone.begin_call(60.0):
        phone.sim.run_until(phone.sim.now + 60.0)
        phone.end_call()
    if phone.begin_message(20.0):
        phone.end_message()
    try:
        phone.os.kernel.execute(phone.app_process("Camera"), _fault)
    except PanicRaised:
        pass
    phone.sim.run_until(phone.sim.now + 30.0)


def _fault() -> None:
    raise AccessViolation(0)  # a null dereference: KERN-EXEC 3


def _daemon_refs(phone: SmartPhone) -> dict:
    daemon = phone.daemon
    return {
        "scheduler": weakref.ref(daemon.scheduler),
        "PanicDetector": weakref.ref(daemon.panic_detector),
        "RunningAppsDetector": weakref.ref(daemon.runapp_detector),
        "LogEngine": weakref.ref(daemon.log_engine),
        "PowerManager": weakref.ref(daemon.power_manager),
    }


def _runtime_refs(phone: SmartPhone) -> dict:
    os_runtime = phone.os
    refs = {
        "OSRuntime": weakref.ref(os_runtime),
        "kernel": weakref.ref(os_runtime.kernel),
        "bus": weakref.ref(os_runtime.bus),
        "AppArchServer": weakref.ref(os_runtime.apparch),
        "RDebug": weakref.ref(os_runtime.rdebug),
    }
    refs.update(_daemon_refs(phone))
    return refs


def _alive(refs: dict) -> list:
    return [name for name, ref in refs.items() if ref() is not None]


def _booted(phone: SmartPhone) -> SmartPhone:
    phone.boot()
    _exercise(phone)
    return phone


@pytest.mark.parametrize("kind", ["user", "self", "lowbt"])
def test_graceful_shutdown_frees_runtime(phone, kind):
    refs = _runtime_refs(_booted(phone))
    phone.graceful_shutdown(kind)
    assert _alive(refs) == []


def test_freeze_frees_runtime(phone):
    refs = _runtime_refs(_booted(phone))
    phone.freeze()
    assert phone.state == STATE_FROZEN
    assert _alive(refs) == []


def test_battery_pull_from_on_frees_runtime(phone):
    refs = _runtime_refs(_booted(phone))
    phone.battery_pull()
    assert _alive(refs) == []


def test_battery_pull_from_frozen_frees_runtime(phone):
    refs = _runtime_refs(_booted(phone))
    phone.freeze()
    phone.battery_pull()
    assert phone.state == STATE_OFF
    assert _alive(refs) == []


def test_stop_logger_frees_daemon(phone):
    _booted(phone)
    runtime = weakref.ref(phone.os)
    refs = _daemon_refs(phone)
    phone.stop_logger()
    assert _alive(refs) == []
    phone.restart_logger()
    restarted = _daemon_refs(phone)
    _exercise(phone)
    assert runtime() is phone.os  # the runtime itself lives on
    assert _alive(restarted) == list(restarted)
    phone.graceful_shutdown("user")
    assert runtime() is None
    assert _alive(restarted) == []


# -- finished phones ------------------------------------------------------------


def test_finished_phone_is_freed_before_the_next_is_built(gc_off, monkeypatch):
    """The fleet keeps one phone resident: phone k's SmartPhone (and its
    models and flash) is dead by the time phone k+1 is built."""
    config = CampaignConfig.quick(2005).fleet
    alive_at_build = []
    refs = []
    build_phone = Fleet._build_phone

    def watched(self, index, enrolled_at):
        alive_at_build.append([ref() is not None for ref in refs])
        instance = build_phone(self, index, enrolled_at)
        refs.append(weakref.ref(instance.device))
        refs.append(weakref.ref(instance.user))
        refs.append(weakref.ref(instance.faults))
        return instance

    monkeypatch.setattr(Fleet, "_build_phone", watched)
    fleet = Fleet(config, seed=2005)
    fleet.run()
    assert len(alive_at_build) == config.phone_count
    assert all(not any(alive) for alive in alive_at_build), alive_at_build
    assert _alive({str(i): ref for i, ref in enumerate(refs)}) == []
    assert fleet.ground_truth()["boots"] > 0


def test_retiring_a_finished_phone_writes_nothing(monkeypatch):
    """``retire`` runs after the phone is tallied and synced, so it must
    leave its beats file and flash as they are."""
    config = CampaignConfig.quick(2005).fleet
    seen = []
    retire = SmartPhone.retire

    def state(phone):
        beats = phone.beats
        return (beats.writes, beats.last_event(), phone.storage.line_count)

    def watched(self):
        before = state(self)
        retire(self)
        seen.append(state(self) == before)

    monkeypatch.setattr(SmartPhone, "retire", watched)
    Fleet(config, seed=2005).run()
    assert seen == [True] * config.phone_count


# -- whole campaigns -----------------------------------------------------------


@pytest.fixture()
def saveall():
    """Collect into ``gc.garbage`` instead of freeing, GC disabled."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _assert_no_garbage() -> None:
    gc.collect()
    count = len(gc.garbage)
    top = Counter(type(obj).__name__ for obj in gc.garbage).most_common(10)
    assert count == 0, f"{count} cyclic garbage objects, most common: {top}"


def test_clean_campaign_leaves_no_garbage(saveall):
    result = run_campaign(CampaignConfig.quick(2005))
    _assert_no_garbage()
    assert result.fleet.ground_truth()["boots"] > 0


def test_faulty_link_campaign_leaves_no_garbage(saveall):
    collector = CollectionServer(link=FaultyLink(FaultPlan.mild()))
    result = run_campaign(CampaignConfig.quick(2005), collector=collector)
    _assert_no_garbage()
    assert result.dataset.ingest_report.quarantined > 0


def test_shard_task_leaves_no_garbage(saveall, monkeypatch):
    # The task drops its fleet on return; keep it, as run_campaign's
    # result keeps its own, so that the check sees only what the run
    # itself dropped.
    kept = []
    simulate_and_ingest = shard_module.simulate_and_ingest

    def keeping(*args, **kwargs):
        products = simulate_and_ingest(*args, **kwargs)
        kept.append(products)
        return products

    monkeypatch.setattr(shard_module, "simulate_and_ingest", keeping)
    config = plan_shards(CampaignConfig.quick(2005), 3)[1]
    result = ShardTask()(config)
    _assert_no_garbage()
    assert result.phone_range == config.fleet.resolved_range()
    assert len(kept) == 1
