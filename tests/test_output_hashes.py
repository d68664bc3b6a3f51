"""Pinned sha256 digests of canonical outputs of the MST stack and of
``decompose``.  A speed-up must leave every output byte-identical; these
digests were recorded before the MST stack moved to integer weight ranks
and the holdings loop stopped at its fixpoint, and any change to them is a
change of results, not of speed.

To print the digests of the code under test:

    PYTHONPATH=src python tests/test_output_hashes.py
"""

import hashlib
import json

import pytest

from netdecomp.clustering import decomposition_to_json
from netdecomp.covers import cover_mst, kruskal_oracle, mst_radius
from netdecomp.decompose import decompose
from netdecomp.graphs import generate_graph, random_weights

INPUTS = {
    "path n=12": ("path", {"n": 12}, 0),
    "clique n=7": ("clique", {"n": 7}, 0),
    "grid 6x7": ("grid", {"rows": 6, "cols": 7}, 0),
    "tree n=80": ("tree", {"n": 80}, 3),
    "gnp n=60": ("gnp", {"n": 60, "p": 0.08, "largest_component": 1}, 1),
    "gnp n=120": ("gnp", {"n": 120, "p": 0.03, "largest_component": 1}, 2),
    "gnp n=150": ("gnp", {"n": 150, "p": 0.02, "largest_component": 1}, 5),
    "gnp n=200": ("gnp", {"n": 200, "p": 0.0133, "largest_component": 1}, 7),
}

EXPECTED = {
    "path n=12": {
        "cover_mst":
            "ea86fc902bec2d2ea3e4a9e1ebb902b79660780532b6b7f2e86ba805c728eaac",
        "mst_radius":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kruskal_oracle":
            "9249a732d8510e3f580b4d7af02961d468a9aa8bc2411f70ce54e18447a5e7fc",
        "decompose k=1":
            "cec22c540bb4cf55a69060e950048cd9c58bde9ca4cd21751df9b680d433d075",
        "decompose k=2":
            "2dae8c45d26aa34856d48f1d4ce4d3464ba95cf38ecdc34cedc89c7e8f79c33e",
        "decompose k=3":
            "9c268ae8cf79eee9bb785ed1e3030594986c135438bd8b0db69e1f89f9196df5",
    },
    "clique n=7": {
        "cover_mst":
            "88255699c13b2dd508eb58c5f906051edb62a812a25db95931eb02c4d22c9436",
        "mst_radius":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
        "kruskal_oracle":
            "590133888b8d45549a728208ae0c4f14630c09a968dc37d4b06dfb3c0521fccc",
        "decompose k=1":
            "1e8c4d0ee2ff04fe1ccd97b8a9d94870ee6f808f7f1aa984eda6f2a4d102f871",
        "decompose k=2":
            "67f8aa5f844506910904bb6e3f904f076f0bb2a6ffd893fb3f4de1224d455688",
        "decompose k=3":
            "111f9a500c4dbcbfdde417811ea9b97b090d1a206a953ae0714c4374f26a02b2",
    },
    "grid 6x7": {
        "cover_mst":
            "0bb7c1eceecd4172830b9f7716b424787946a393f5490cfa08525196bba54838",
        "mst_radius":
            "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "kruskal_oracle":
            "62d0dcc0c4c444b6f4485bdafa1e5ed2a6142b4ea188c4729729d9c909c8e4b5",
        "decompose k=1":
            "af2220c34d25585b85b4132b87dd8ee999af7bfaf5bf05659d486be7db397091",
        "decompose k=2":
            "3e493010cfef286be7f7dcf832189816641d57a2a6784397277bd82592c386f4",
        "decompose k=3":
            "710702e906a9f38c6fdf485f4212022e3837ea7f2f3e1c2d03afc581992b4124",
    },
    "tree n=80": {
        "cover_mst":
            "894e9d5dbd03380f718c55a5898c70f8d3f1aa077ba3b347edb3330b8cb469a2",
        "mst_radius":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "kruskal_oracle":
            "fe109a6a916fe3fac639d4c9bb97ab35471d708def0fb30a9e1df56e65aa3346",
        "decompose k=1":
            "fe0ade4a25d87c6afdcf60c9462ed3918ca7f6aed085b9f58fc4398f8e11d87b",
        "decompose k=2":
            "15320cf13dc0fbb49341a6135155127daed07f286399cafeeabdff79ab7d5e88",
        "decompose k=3":
            "5c89c34dcaa8c29b33284912b933d355c59fa5f3b250499952f33cb0587c37c1",
    },
    "gnp n=60": {
        "cover_mst":
            "7295a883df5e36be4d79df87c11b63c891576cdb70f8c74b57fc19984759c679",
        "mst_radius":
            "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5",
        "kruskal_oracle":
            "736f75223b9903e162c59a57ba29f31fa38194ff5fb2838d78b5ae41a07712b3",
        "decompose k=1":
            "d2a35faf21234df8095ad25dcd8ba41ee57463c11d14d812bbfc6c63464793f3",
        "decompose k=2":
            "93bdb7d9c5f1aeddfb985873f29c1b95674d714d7ed98a970ff79ea70f77eea2",
        "decompose k=3":
            "570841ec6b91cdc537783a6ba7c6436ade8c7a37956540fcd29de49cf1402261",
    },
    "gnp n=120": {
        "cover_mst":
            "3572273fb1a19866fe0d9e60744bf70299e13f5a8d69297aa62189e86c03c2da",
        "mst_radius":
            "4523540f1504cd17100c4835e85b7eefd49911580f8efff0599a8f283be6b9e3",
        "kruskal_oracle":
            "8783216c437956bdeb3906274dcf79013dfb653ef0fbd19315675f92aed09dbe",
        "decompose k=1":
            "a16e57bc5a2fb7c7e8088f8a03df8e846a0b6cd2346f9f34e59f845b14d61510",
        "decompose k=2":
            "d13286817cf6f1dc4dd4261d328edb7c0cd46b21d7fe417f889317164d36dfba",
        "decompose k=3":
            "5a8943ddce57b9d508382036c517041422c5851b76aa5c5b1737787989603a3d",
    },
    "gnp n=150": {
        "cover_mst":
            "5718caf8235b19afd153f207ec1ae280bbfa272a756f79f7868eff85f84d8d77",
        "mst_radius":
            "8527a891e224136950ff32ca212b45bc93f69fbb801c3b1ebedac52775f99e61",
        "kruskal_oracle":
            "30d8093c45e3790f8c53409502ae47f05d77cd32814c58d25e56f94dbd42a4a7",
        "decompose k=1":
            "86d04a1a165020efe6c50f5ffe92109f734cc268720fac61f1634a048b9c6563",
        "decompose k=2":
            "fd042f177a0d3cb083187e6234e388f047b57c33bf3796704fddfc59cc7a69f5",
        "decompose k=3":
            "41d1108a2575aee2d40736127679315b5f3cfae355efd502b8bd261f45051327",
    },
    "gnp n=200": {
        "cover_mst":
            "0e5075c8c0760ac1a9de7482ecdfaa2c8d48cebe7a49343b1448ce3ffb96792f",
        "mst_radius":
            "f5ca38f748a1d6eaf726b8a42fb575c3c71f1864a8143301782de13da2d9202b",
        "kruskal_oracle":
            "137daa4ea36f49feebfcd8e02764b315af04370180f3345cc21c313d58b392b4",
        "decompose k=1":
            "b55ef26f37086878a6b67266be42067bc9e6d1acd0a36ce03fa8a854216c6d37",
        "decompose k=2":
            "6f210a61fd1afa09f53e57264d96c7c83de0b5dac07e76f9b1fe5609e969266e",
        "decompose k=3":
            "e2cfbcd9355ac93e43d2a3df30aae11a33ba0de474d43e277de021d14e2cb0af",
    },
}


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _edges(g, edges):
    return sorted(sorted((g.ids[a], g.ids[b])) for a, b in edges)


def outputs(name: str) -> dict[str, str]:
    model, params, seed = INPUTS[name]
    g = generate_graph(model, params, seed)
    wg = random_weights(g, seed)
    res = cover_mst(wg)
    out = {
        "cover_mst": _sha({
            "tree": _edges(wg, res.tree_edges),
            "classification": sorted(
                [sorted((wg.ids[a], wg.ids[b])), rule]
                for (a, b), rule in res.classification.items()
            ),
            "cluster_msts": sorted(
                [cid, _edges(wg, t)] for cid, t in res.cluster_msts.items()
            ),
            "mu": res.mu,
            "sparsity": res.cover_sparsity,
        }),
        "mst_radius": _sha(mst_radius(wg)),
        "kruskal_oracle": _sha(_edges(wg, kruskal_oracle(wg))),
    }
    for k in (1, 2, 3):
        r = decompose(g, k)
        out[f"decompose k={k}"] = _sha({
            "decomposition": decomposition_to_json(g, r.decomposition),
            "invariants_log": r.invariants_log,
        })
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_outputs_match_pinned_digests(name):
    assert outputs(name) == EXPECTED[name]


if __name__ == "__main__":
    print("EXPECTED = {")
    for name in INPUTS:
        print(f"    {json.dumps(name)}: {{")
        for key, digest in outputs(name).items():
            print(f"        {json.dumps(key)}:\n            {json.dumps(digest)},")
        print("    },")
    print("}")
