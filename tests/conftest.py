"""Shared fixtures: generated families are expensive, so build them once."""

import pytest

from bubbletree import ExtractionConfig, FamilySpec, extract_bubble_tree, make_family

BUBBLE_SCHEDULE = (316.0, 3162.0, 10000.0)


@pytest.fixture(scope="session")
def bubble1_family():
    return make_family(FamilySpec(kind="bubble1", schedule=BUBBLE_SCHEDULE))


@pytest.fixture(scope="session")
def bubble2_family():
    return make_family(FamilySpec(kind="bubble2", schedule=BUBBLE_SCHEDULE))


@pytest.fixture(scope="session")
def plumbing_family():
    return make_family(
        FamilySpec(kind="plumbing", schedule=(1e-3, 1e-5, 1e-7, 1e-9), delta=0.5)
    )


@pytest.fixture(scope="session")
def plumbing_bubble_family():
    return make_family(
        FamilySpec(
            kind="plumbing_bubble", schedule=(1e-6, 1e-9, 1e-12, 1e-15), delta=0.5
        )
    )


@pytest.fixture(scope="session")
def torus21_family():
    return make_family(
        FamilySpec(
            kind="torus_linear",
            schedule=(1e-2, 1e-4, 1e-6, 1e-8),
            delta=0.5,
            slopes=(2.0, 1.0),
        )
    )


@pytest.fixture(scope="session")
def torus10_family():
    return make_family(
        FamilySpec(
            kind="torus_linear",
            schedule=(1e-2, 1e-4, 1e-6, 1e-8),
            delta=0.5,
            slopes=(1.0, 0.0),
        )
    )


@pytest.fixture(scope="session")
def bubble1_tree(bubble1_family):
    return extract_bubble_tree(bubble1_family)


@pytest.fixture(scope="session")
def bubble2_tree(bubble2_family):
    return extract_bubble_tree(bubble2_family)


@pytest.fixture(scope="session")
def plumbing_tree(plumbing_family):
    cfg = ExtractionConfig(neck_deltas=(0.1, 0.05, 0.02, 0.01, 0.005, 0.002))
    return extract_bubble_tree(plumbing_family, cfg)


@pytest.fixture(scope="session")
def plumbing_bubble_tree(plumbing_bubble_family):
    return extract_bubble_tree(plumbing_bubble_family)


@pytest.fixture(scope="session")
def torus21_tree(torus21_family):
    cfg = ExtractionConfig(neck_deltas=(0.1, 0.05, 0.02, 0.01, 0.005, 0.002))
    return extract_bubble_tree(torus21_family, cfg)
