import json

import numpy as np
import pytest

from spbe import (
    GameSpec,
    GameSpecError,
    game_spec_from_document,
    game_spec_to_document,
    instances,
    parse_game_spec,
    serialize_game_spec,
)

MINIMAL = {
    "players": 1,
    "horizon": 1,
    "types": [["only"]],
    "actions": [["go"]],
    "prior": [1.0],
    "rewards": [[[0.5]]],
    "discount": 1.0,
}


def test_minimal_document():
    spec = game_spec_from_document(MINIMAL)
    assert spec.num_joint_types == 1
    assert spec.num_joint_actions == 1
    assert spec.reward(1, 0, 0, 0) == 0.5


def test_reference_document_fields():
    doc = game_spec_to_document(instances.reference_instance())
    assert set(doc) == {"players", "horizon", "types", "actions", "prior",
                        "rewards", "discount"}
    assert doc["players"] == 2
    assert doc["prior"] == [0.4, 0.1, 0.1, 0.4]
    assert len(doc["rewards"]) == 2  # nonstationary: one block per stage


def test_stationary_shorthand():
    doc = game_spec_to_document(instances.dominant_types_instance())
    assert doc["rewards"]["stationary"] is True
    spec = game_spec_from_document(doc)
    assert spec.stationary
    np.testing.assert_array_equal(spec.reward_tensor(1), spec.reward_tensor(2))


@pytest.mark.parametrize("name", sorted(instances.corpus()))
def test_round_trip_bit_exact(name):
    spec = instances.corpus()[name]
    again = parse_game_spec(serialize_game_spec(spec))
    np.testing.assert_array_equal(again.prior, spec.prior)
    assert len(again.rewards) == len(spec.rewards)
    for a, b in zip(again.rewards, spec.rewards):
        np.testing.assert_array_equal(a, b)
    assert again.digest() == spec.digest()


def test_flatten_unflatten_bijective():
    spec = instances.three_player_instance()
    for af in range(spec.num_joint_actions):
        assert spec.flatten_actions(spec.unflatten_actions(af)) == af
    spec = instances.reference_instance()
    for xf in range(spec.num_joint_types):
        assert spec.flatten_types(spec.unflatten_types(xf)) == xf
    assert spec.flatten_types((1, 0)) == 2


def test_reward_stage_bounds():
    spec = instances.reference_instance()
    with pytest.raises(ValueError):
        spec.reward_tensor(0)
    with pytest.raises(ValueError):
        spec.reward_tensor(3)


def test_zero_reward_queries():
    spec = instances.zero_reward_instance()
    for t in (1, 2):
        for xf in range(4):
            for af in range(4):
                assert spec.reward(t, 0, xf, af) == 0.0
                assert spec.reward(t, 1, xf, af) == 0.0


def test_nonstationary_stage_lookup():
    spec = instances.single_player_instance()
    assert spec.reward(1, 0, 0, 0) == 1.0
    assert spec.reward(2, 0, 0, 0) == 0.2


@pytest.mark.parametrize("mutate,phrase", [
    (lambda d: d.pop("prior"), "missing field"),
    (lambda d: d.update(prior=[0.5, 0.5, 0.5, 0.5]), "normalized"),
    (lambda d: d.update(prior=[1.0, 0.0, 0.0, -0.0001]), "negative"),
    (lambda d: d.update(rewards=d["rewards"][:1]), "stage blocks"),
    (lambda d: d.update(types=[["a", "b"]]), "alphabet"),
    (lambda d: d["rewards"][1][1].__setitem__(3, {}),
     r"^rewards stage 2, player 1: float\(\) argument must be .* not 'dict'$"),
    (lambda d: d["rewards"][0][0].__setitem__(0, "x"),
     r"^rewards stage 1, player 0: could not convert string to float: 'x'$"),
    (lambda d: d.update(discount=10 ** 400), "^int too large to convert to float$"),
    (lambda d: d["prior"].__setitem__(0, 10 ** 400),
     "^int too large to convert to float$"),
])
def test_validation_rejects(mutate, phrase):
    doc = game_spec_to_document(instances.reference_instance())
    mutate(doc)
    with pytest.raises(GameSpecError, match=phrase):
        game_spec_from_document(doc)


def test_validation_rejects_bad_horizon():
    # stationary form so the block count cannot mask the horizon problem
    doc = game_spec_to_document(instances.dominant_types_instance())
    doc["horizon"] = 0
    with pytest.raises(GameSpecError, match="horizon"):
        game_spec_from_document(doc)


def test_malformed_json_text():
    with pytest.raises(GameSpecError, match="JSON"):
        parse_game_spec("{not json")


def test_digest_tracks_content():
    a = instances.reference_instance()
    doc = game_spec_to_document(a)
    doc["rewards"][0][0][0] += 1e-9
    b = game_spec_from_document(doc)
    assert a.digest() != b.digest()
    assert a.digest() == instances.reference_instance().digest()


def test_prior_tolerance_accepts_near_one():
    doc = game_spec_to_document(instances.reference_instance())
    doc["prior"] = [0.4, 0.1, 0.1, 0.4 + 1e-12]
    spec = game_spec_from_document(doc)
    assert isinstance(spec, GameSpec)


def test_corpus_instances_all_validate():
    # builders validate on construction; reaching here means they passed
    assert len(instances.corpus()) >= 10


def test_document_round_trip_through_json_text():
    spec = instances.signaling_pennies_instance()
    text = serialize_game_spec(spec)
    assert json.loads(text)["horizon"] == 2
    assert parse_game_spec(text).digest() == spec.digest()
