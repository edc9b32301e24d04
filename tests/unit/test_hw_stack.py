"""Unit tests for the HW module, front end, and the Figure 3 software stack."""

import pytest

from repro.core.config import PIFTConfig
from repro.core.events import AccessKind
from repro.core.hw import (
    Command,
    CommandRequest,
    PIFTFrontEnd,
    PIFTHardwareModule,
)
from repro.core.manager import PIFTManager
from repro.core.module import PIFTKernelModule
from repro.core.native import AddressTranslationError, PIFTNative
from repro.core.ranges import AddressRange


def make_stack(ni=5, nt=2):
    hw = PIFTHardwareModule(PIFTConfig(window_size=ni, max_propagations=nt))
    module = PIFTKernelModule(hw)
    native = PIFTNative(module)
    manager = PIFTManager(native)
    return hw, module, native, manager


class FakeString:
    """Stand-in for a VM heap value with a known backing range."""

    def __init__(self, base, size):
        self.base = base
        self.size = size


def fake_translator(value):
    return [AddressRange.from_base_size(value.base, value.size)]


class TestHardwareModuleCommands:
    def test_register_then_check(self):
        hw, *_ = make_stack()
        r = AddressRange(0x100, 0x10F)
        assert hw.execute(CommandRequest(Command.REGISTER, address_range=r)).ok
        response = hw.execute(CommandRequest(Command.CHECK, address_range=r))
        assert response.ok and response.tainted

    def test_check_clean_range(self):
        hw, *_ = make_stack()
        response = hw.execute(
            CommandRequest(Command.CHECK, address_range=AddressRange(0, 3))
        )
        assert response.ok and not response.tainted

    def test_register_without_range_fails(self):
        hw, *_ = make_stack()
        assert not hw.execute(CommandRequest(Command.REGISTER)).ok

    def test_configure_updates_parameters(self):
        hw, *_ = make_stack(ni=5, nt=2)
        hw.execute(
            CommandRequest(Command.CONFIGURE, window_size=13, max_propagations=3)
        )
        assert hw.config.window_size == 13
        assert hw.config.max_propagations == 3

    def test_configure_partial_keeps_other_parameter(self):
        hw, *_ = make_stack(ni=5, nt=2)
        hw.execute(CommandRequest(Command.CONFIGURE, window_size=9))
        assert hw.config.window_size == 9
        assert hw.config.max_propagations == 2

    def test_configure_keeps_fields_it_does_not_set(self):
        hw = PIFTHardwareModule(
            PIFTConfig(5, 2, untainting=False, vectorized=False)
        )
        response = hw.execute(
            CommandRequest(Command.CONFIGURE, window_size=9, max_propagations=4)
        )
        assert response.ok
        assert hw.config == PIFTConfig(
            9, 4, untainting=False, vectorized=False
        )

    @pytest.mark.parametrize("field", ["window_size", "max_propagations"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_configure_rejects_out_of_range_value(self, field, value):
        # Zero is a value, not "not given"; neither it nor a negative
        # one may raise out of execute or change the config.
        hw, *_ = make_stack(ni=5, nt=2)
        before = hw.config
        response = hw.execute(CommandRequest(Command.CONFIGURE, **{field: value}))
        assert not response.ok
        assert hw.config == before

    def test_configure_rejection_leaves_valid_field_unchanged(self):
        hw, *_ = make_stack(ni=5, nt=2)
        response = hw.execute(
            CommandRequest(Command.CONFIGURE, window_size=9, max_propagations=0)
        )
        assert not response.ok
        assert (hw.config.window_size, hw.config.max_propagations) == (5, 2)

    def test_kernel_module_raises_on_rejected_configure(self):
        hw, module, *_ = make_stack(ni=5, nt=2)
        with pytest.raises(RuntimeError, match="rejected CONFIGURE"):
            module.configure(window_size=0, max_propagations=3)
        assert hw.config.window_size == 5


class TestFrontEnd:
    def test_counts_all_instructions(self):
        hw, *_ = make_stack()
        fe = PIFTFrontEnd(hw)
        fe.on_instruction()  # non-memory
        fe.on_instruction()  # non-memory
        idx = fe.on_instruction(AccessKind.LOAD, AddressRange(0x100, 0x103))
        assert idx == 2
        assert fe.instruction_count() == 3

    def test_memory_instruction_requires_range(self):
        hw, *_ = make_stack()
        fe = PIFTFrontEnd(hw)
        with pytest.raises(ValueError):
            fe.on_instruction(AccessKind.LOAD)

    def test_per_process_counters(self):
        hw, *_ = make_stack()
        fe = PIFTFrontEnd(hw)
        fe.context_switch(1)
        fe.on_instruction()
        fe.on_instruction()
        fe.context_switch(2)
        fe.on_instruction()
        assert fe.instruction_count(1) == 2
        assert fe.instruction_count(2) == 1

    def test_events_reach_tracker_with_pid(self):
        hw, *_ = make_stack(ni=5, nt=2)
        fe = PIFTFrontEnd(hw)
        fe.context_switch(7)
        hw.execute(
            CommandRequest(
                Command.REGISTER, pid=7, address_range=AddressRange(0x100, 0x103)
            )
        )
        fe.on_instruction(AccessKind.LOAD, AddressRange(0x100, 0x103))
        fe.on_instruction(AccessKind.STORE, AddressRange(0x200, 0x203))
        tainted = hw.execute(
            CommandRequest(
                Command.CHECK, pid=7, address_range=AddressRange(0x200, 0x203)
            )
        ).tainted
        assert tainted


class TestKernelModule:
    def test_leak_event_emitted_on_tainted_sink(self):
        hw, module, *_ = make_stack()
        seen = []
        module.subscribe(seen.append)
        r = AddressRange(0x100, 0x103)
        module.register_range(r)
        assert module.check_range(r, sink_description="sendTextMessage")
        assert len(seen) == 1
        assert seen[0].sink_description == "sendTextMessage"
        assert module.leak_events == seen

    def test_no_event_on_clean_sink(self):
        hw, module, *_ = make_stack()
        assert not module.check_range(AddressRange(0x900, 0x903))
        assert not module.leak_events

    def test_configure_passthrough(self):
        hw, module, *_ = make_stack()
        module.configure(window_size=18, max_propagations=3)
        assert hw.config.window_size == 18


class TestNativeTranslation:
    def test_register_and_check_value(self):
        hw, module, native, _ = make_stack()
        native.register_translator(FakeString, fake_translator)
        imei = FakeString(0x3000, 30)
        native.register_value(imei)
        assert native.check_value(imei)

    def test_translator_resolved_via_mro(self):
        class SubString(FakeString):
            pass

        hw, module, native, _ = make_stack()
        native.register_translator(FakeString, fake_translator)
        assert native.translate(SubString(0x100, 4)) == [AddressRange(0x100, 0x103)]

    def test_unknown_type_raises(self):
        hw, module, native, _ = make_stack()
        with pytest.raises(AddressTranslationError):
            native.translate(object())


class TestManager:
    def test_source_to_sink_detection(self):
        hw, module, native, manager = make_stack()
        native.register_translator(FakeString, fake_translator)
        imei = FakeString(0x3000, 30)
        manager.register_source("TelephonyManager.getDeviceId", imei)
        assert manager.check_sink("SmsManager.sendTextMessage", imei)
        assert manager.leak_detected
        assert manager.sources_registered[0].source_name == (
            "TelephonyManager.getDeviceId"
        )
        assert manager.sink_reports[0].tainted

    def test_clean_sink_reports_untainted(self):
        hw, module, native, manager = make_stack()
        native.register_translator(FakeString, fake_translator)
        manager.register_source("source", FakeString(0x3000, 30))
        assert not manager.check_sink("sink", FakeString(0x8000, 30))
        assert not manager.leak_detected
