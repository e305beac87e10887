"""Tests for the resilience policy layer: configs, retryability, reports."""

import pytest

from repro.errors import (
    ResilienceError,
    SanitizerError,
    SchemeError,
    TraceError,
    WorkloadError,
)
from repro.resilience.chaos import InjectedFault
from repro.resilience.policy import (
    DEFAULT_RESILIENCE,
    FailureReport,
    ResilienceConfig,
    cause_chain,
    is_retryable,
    render_failures,
)


class TestRetryability:
    def test_static_config_errors_are_not_retryable(self):
        for error in (SchemeError("bad"), WorkloadError("bad")):
            assert not is_retryable(error)

    def test_sanitizer_errors_get_the_reference_attempt(self):
        assert is_retryable(SanitizerError("invariant"))

    def test_environment_and_unknown_errors_are_retryable(self):
        for error in (
            OSError("disk"),
            InjectedFault("chaos"),
            TraceError("torn"),
            RuntimeError("bug"),
        ):
            assert is_retryable(error)


class TestCauseChain:
    def test_walks_explicit_causes(self):
        try:
            try:
                raise OSError("disk full")
            except OSError as inner:
                raise RuntimeError("save failed") from inner
        except RuntimeError as error:
            chain = cause_chain(error)
        assert chain == ("RuntimeError: save failed", "OSError: disk full")

    def test_limit_bounds_pathological_chains(self):
        error: BaseException = ValueError("0")
        for index in range(1, 20):
            new = ValueError(str(index))
            new.__cause__ = error
            error = new
        assert len(cause_chain(error, limit=8)) == 8


class TestResilienceConfig:
    def test_default_is_valid(self):
        assert DEFAULT_RESILIENCE.validate() is DEFAULT_RESILIENCE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"timeout_s": -5.0},
        ],
    )
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(ResilienceError):
            ResilienceConfig(**kwargs).validate()


class TestFailureReports:
    def test_describe_names_the_recovery(self):
        report = FailureReport(
            site="cell",
            benchmark="crc",
            cell="crc:baseline:wpa0",
            attempts=2,
            causes=("InjectedFault: chaos",),
            recovery="engine-fallback",
            recovered=True,
        )
        text = report.describe()
        assert "recovered via engine-fallback" in text
        assert "2 attempt(s)" in text
        assert "InjectedFault" in text

    def test_render_counts_recovered_and_fatal(self):
        ok = FailureReport(
            "cell", "crc", "c", 2, recovery="engine-fallback", recovered=True
        )
        bad = FailureReport("worker", "sha", "s", 3)
        text = render_failures([ok, bad])
        assert "NOT recovered" in text
        assert "2 incident(s): 1 recovered, 1 fatal" in text
