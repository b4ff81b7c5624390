"""Tests for the accuracy proxy and the error-injection study."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.accuracy.evaluation import ErrorInjectionStudy
from repro.accuracy.proxy_model import ProxyLLM
from repro.accuracy.tasks import SyntheticTask, paper_tasks
from repro.quant.outliers import outlier_mass_fraction


@pytest.fixture(scope="module")
def hellaswag_study():
    """A single shared study keeps the module fast."""
    return ErrorInjectionStudy(paper_tasks()["hellaswag"], trials=2)


# -- tasks -------------------------------------------------------------------
def test_tasks_are_deterministic():
    task = SyntheticTask(name="t", num_classes=4, noise=1.0, seed=5)
    x1, y1 = task.train_data()
    x2, y2 = task.train_data()
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_train_and_test_splits_differ_but_share_structure():
    task = SyntheticTask(name="t", num_classes=4, noise=1.0, seed=5)
    x_train, _ = task.train_data()
    x_test, _ = task.test_data()
    assert x_train.shape[1] == x_test.shape[1]
    assert not np.array_equal(x_train[: len(x_test)], x_test)


def test_paper_tasks_have_expected_shapes():
    tasks = paper_tasks()
    assert set(tasks) == {"hellaswag", "arc", "winogrande"}
    assert tasks["winogrande"].num_classes == 2
    assert tasks["hellaswag"].chance_accuracy == 0.25


def test_invalid_tasks_rejected():
    with pytest.raises(ValueError):
        SyntheticTask(name="t", num_classes=1)
    with pytest.raises(ValueError):
        SyntheticTask(name="t", noise=0.0)


# -- proxy model -------------------------------------------------------------------
def test_proxy_learns_well_above_chance():
    task = paper_tasks()["hellaswag"]
    model = ProxyLLM(task).fit()
    assert model.evaluate_float() > task.chance_accuracy + 0.25


def test_proxy_weights_have_llm_like_outlier_structure():
    """~1 % of weights must carry most of the tensor's energy (Section VI insight)."""
    model = ProxyLLM(paper_tasks()["hellaswag"]).fit()
    w1, _ = model.float_weights
    assert outlier_mass_fraction(w1, 0.02) > 0.7


def test_quantization_costs_only_a_few_points():
    model = ProxyLLM(paper_tasks()["hellaswag"]).fit()
    drop = model.evaluate_float() - model.evaluate_quantized(model.quantize())
    assert drop < 0.06


def test_unfit_model_raises():
    model = ProxyLLM(paper_tasks()["arc"])
    with pytest.raises(RuntimeError):
        model.quantize()


def test_invalid_proxy_parameters_rejected():
    task = paper_tasks()["arc"]
    with pytest.raises(ValueError):
        ProxyLLM(task, hidden_dim=0)
    with pytest.raises(ValueError):
        ProxyLLM(task, outlier_scale=0.5)
    with pytest.raises(ValueError):
        ProxyLLM(task, outlier_fraction=0.0)


# -- error-injection study ----------------------------------------------------------
def test_baseline_accuracy_in_paper_band(hellaswag_study):
    """The HellaSwag proxy's clean accuracy sits near OPT-6.7B's ~65-70 %."""
    assert 0.55 <= hellaswag_study.baseline_accuracy <= 0.75


def test_low_error_rates_are_harmless(hellaswag_study):
    result = hellaswag_study.evaluate_rate(1e-6)
    assert result.retention_without_ecc > 0.95
    assert result.retention_with_ecc > 0.95


def test_high_error_rate_destroys_accuracy_without_ecc(hellaswag_study):
    """Fig. 3b: unprotected weights collapse towards chance at ~1e-3 and above."""
    result = hellaswag_study.evaluate_rate(2e-3)
    assert result.retention_without_ecc < 0.6
    assert result.accuracy_with_ecc > result.accuracy_without_ecc + 0.1


def test_ecc_preserves_accuracy_at_2e4(hellaswag_study):
    """Fig. 10: at 2e-4 the ECC retains ≥ ~90 % of the original accuracy."""
    result = hellaswag_study.evaluate_rate(2e-4)
    assert result.retention_with_ecc > 0.9
    assert result.retention_without_ecc < result.retention_with_ecc


def test_ecc_protection_has_limits(hellaswag_study):
    """Section VIII-D: beyond ~1e-2 even the protected model degrades."""
    result = hellaswag_study.evaluate_rate(2e-2)
    assert result.retention_with_ecc < 0.9


def test_sweep_returns_one_result_per_rate(hellaswag_study):
    rates = [1e-5, 1e-4, 1e-3]
    results = hellaswag_study.sweep(rates)
    assert [r.error_rate for r in results] == rates
    assert all(r.task_name == "hellaswag-proxy" for r in results)


def test_invalid_study_arguments_rejected():
    with pytest.raises(ValueError):
        ErrorInjectionStudy(paper_tasks()["arc"], trials=0)
    with pytest.raises(ValueError):
        ErrorInjectionStudy(paper_tasks()["arc"], trials=1).evaluate_rate(-1e-4)


def test_results_do_not_depend_on_the_string_hash_seed():
    """Trial seeds come from a stable digest, so two interpreters with
    differently salted ``str`` hashes inject the same bit flips."""
    script = (
        "from repro.accuracy.evaluation import ErrorInjectionStudy\n"
        "from repro.accuracy.tasks import paper_tasks\n"
        "study = ErrorInjectionStudy(paper_tasks()['hellaswag'], trials=1)\n"
        "print(study.evaluate_rate(1e-3))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "8"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]
