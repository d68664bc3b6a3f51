"""Pinned sha256 digests of canonical outputs of the MST stack, of
``decompose`` and of ``validate_decomposition``, and of the randomized
outputs (``gnp`` graphs, Ghaffari runs, the MIS pipeline, ball carving and
ball growing).  A speed-up must leave every output byte-identical; these
digests were recorded before the MST stack moved to integer weight ranks
and the holdings loop stopped at its fixpoint (the validator digests:
before weak diameters moved to one bit-parallel BFS), and any change to
them is a change of results, not of speed.  The validator is hashed on
each ``decompose`` output and on a one-color recoloring of it, so that its
failure lines and ``min_same_color_gap`` are pinned too.  The randomized
digests were recorded before the per-node streams were computed for all
nodes at once and before ``gnp`` drew its pairs row by row; they pin
every draw.  The engine digests (floods, gossip, tree convergecast,
``decompose(mode="sim")``, many-lane Ghaffari) were recorded
before the engine's send queues, round loop and lane messages were
reworked; they pin holdings, statuses and every ledger, budget violations
included.  The digest of a simulated decomposition that marks clusters
was recorded before the H-view came from one cluster-reach product and
each cluster tree was built once.  The ``load_graph`` digests were
recorded before graph construction and the JSON loader became bulk numpy
operations; they pin ids, neighbor lists, weights and ``id_bits``.  The
validator digests on clusters of up to 2,000 members were recorded before
weak diameters moved to packed uint64 lanes, connectivity to a component
labelling and cover containment to one BFS per cluster.  The
``validate_mis`` verdicts and the reports on invalid trees were recorded
before ``validate_mis`` and the tree checks decided on arrays.

To print the digests of the code under test:

    PYTHONPATH=src python tests/test_output_hashes.py
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import pytest

from netdecomp.clustering import (
    Cluster,
    Decomposition,
    NeighborhoodCover,
    decomposition_to_json,
    validate_cover,
    validate_decomposition,
    validate_mis,
)
from netdecomp.carving import MetaGraph, ball_grow_refine, carve_decompose
from netdecomp.covers import (
    cover_from_decomposition,
    cover_mst,
    kruskal_oracle,
    mst_radius,
)
from netdecomp.decompose import decompose
from netdecomp.graphs import (
    _bfs_idx,
    generate_graph,
    load_graph,
    random_weights,
)
from netdecomp.mis import ghaffari_engine, mis_full, run_ghaffari
from netdecomp.simulate import (
    SimConfig,
    bounded_flood,
    cluster_convergecast,
    min_gossip,
)
from references import connected_components

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
        "validate k=1":
            "05e69c197bb89873e8f6a296fdc1915b2c4053bc55d0f82d7be31a90aa40af13",
        "validate one-color k=1":
            "19fa44307a71975338ebcecd51a62a72f2fd1845f15256108e691c189e20ca80",
        "decompose k=2":
            "2dae8c45d26aa34856d48f1d4ce4d3464ba95cf38ecdc34cedc89c7e8f79c33e",
        "validate k=2":
            "4f3567c8dc8df7f9391c71809b56270bf448d2b17da442dbe75848da49cda771",
        "validate one-color k=2":
            "5bd3dd57c263da1d41a94b04bd64a9b121451f5abd82053e7aae798526897a35",
        "decompose k=3":
            "9c268ae8cf79eee9bb785ed1e3030594986c135438bd8b0db69e1f89f9196df5",
        "validate k=3":
            "aecce7b95a90aaad27fcc881dccc3cab05efcc975f420b2adaf43aa35476dd65",
        "validate one-color k=3":
            "cd73e9bd83aef74e0f14efed83968d065726f42c00a216da0b2d54c255028e88",
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
        "validate k=1":
            "8b9630bfdcd149c5aef88fa5891fbafd412ec07d0435bc21b874199cf78ecd7e",
        "validate one-color k=1":
            "3a6855d660babf2ca48cbb9b5bfa52379ce190a5c9bb5ef17d8c492214291cd9",
        "decompose k=2":
            "67f8aa5f844506910904bb6e3f904f076f0bb2a6ffd893fb3f4de1224d455688",
        "validate k=2":
            "8b9630bfdcd149c5aef88fa5891fbafd412ec07d0435bc21b874199cf78ecd7e",
        "validate one-color k=2":
            "db68ffcdd1882cb46d0e1ee7cd4bb52c4a771d911d1a5efad9fcc86a6a9c25b5",
        "decompose k=3":
            "111f9a500c4dbcbfdde417811ea9b97b090d1a206a953ae0714c4374f26a02b2",
        "validate k=3":
            "8b9630bfdcd149c5aef88fa5891fbafd412ec07d0435bc21b874199cf78ecd7e",
        "validate one-color k=3":
            "611b84dd5264942d45b7695dff6e54e068a6ca5ed3d5739e8240435d97424218",
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
        "validate k=1":
            "05e69c197bb89873e8f6a296fdc1915b2c4053bc55d0f82d7be31a90aa40af13",
        "validate one-color k=1":
            "301e2f64729f42ac7384c645ac67f08542d75f34a8b5c8977fd7936c12b18ff1",
        "decompose k=2":
            "3e493010cfef286be7f7dcf832189816641d57a2a6784397277bd82592c386f4",
        "validate k=2":
            "8b9630bfdcd149c5aef88fa5891fbafd412ec07d0435bc21b874199cf78ecd7e",
        "validate one-color k=2":
            "e936bd5b00cc209a985ee7c1ba5953a8f5438d7405e0d02a83a2a92eda12d5f7",
        "decompose k=3":
            "710702e906a9f38c6fdf485f4212022e3837ea7f2f3e1c2d03afc581992b4124",
        "validate k=3":
            "66435505ce201adecf66639f5b617d2615ff207ff495cef30c9ab74d74e78868",
        "validate one-color k=3":
            "bd111e0162a88ebb472406d3c1b97a04db9116063e19fd59710c57b4b16a545b",
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
        "validate k=1":
            "05e69c197bb89873e8f6a296fdc1915b2c4053bc55d0f82d7be31a90aa40af13",
        "validate one-color k=1":
            "824217801c60413fab816307f113a8679e962503d39e8177e36590e5e176a660",
        "decompose k=2":
            "15320cf13dc0fbb49341a6135155127daed07f286399cafeeabdff79ab7d5e88",
        "validate k=2":
            "c3c86bbd16ccea9584fcdb7f227039922f045874a66cd06cd291cf1f0383a393",
        "validate one-color k=2":
            "4c3a9dc3e134fb0d9d908097596337a7e26b4639de1502921f728bd1028e6007",
        "decompose k=3":
            "5c89c34dcaa8c29b33284912b933d355c59fa5f3b250499952f33cb0587c37c1",
        "validate k=3":
            "e678a2dd623f028c47de998fe4645e5583093d8a98415eba27ff1dead92d3fe9",
        "validate one-color k=3":
            "e678a2dd623f028c47de998fe4645e5583093d8a98415eba27ff1dead92d3fe9",
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
        "validate k=1":
            "aecce7b95a90aaad27fcc881dccc3cab05efcc975f420b2adaf43aa35476dd65",
        "validate one-color k=1":
            "4140c267bf508f38408e58019b8354d9f4a89fd0070ec81ab3a67d14046d1d95",
        "decompose k=2":
            "93bdb7d9c5f1aeddfb985873f29c1b95674d714d7ed98a970ff79ea70f77eea2",
        "validate k=2":
            "5fff395abaa0ad8ece8eb77780a34e19c8f538f1cd9a9cca8582b68f098473f4",
        "validate one-color k=2":
            "2575db315c77b714f994c4297099a7b5f02c8608a8f29232ce876ef785cb5d9b",
        "decompose k=3":
            "570841ec6b91cdc537783a6ba7c6436ade8c7a37956540fcd29de49cf1402261",
        "validate k=3":
            "f0a2c91889f097d38df38c56d49a50322d5779bd8dbd845a98da49f221fe5d9a",
        "validate one-color k=3":
            "f0a2c91889f097d38df38c56d49a50322d5779bd8dbd845a98da49f221fe5d9a",
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
        "validate k=1":
            "aecce7b95a90aaad27fcc881dccc3cab05efcc975f420b2adaf43aa35476dd65",
        "validate one-color k=1":
            "e2de42ae110e620addd6952c7ec3cd60aa6942b15c25e7127ce4840a5fa4783c",
        "decompose k=2":
            "d13286817cf6f1dc4dd4261d328edb7c0cd46b21d7fe417f889317164d36dfba",
        "validate k=2":
            "c3c86bbd16ccea9584fcdb7f227039922f045874a66cd06cd291cf1f0383a393",
        "validate one-color k=2":
            "c8a0344c29a0e4d57a5e76c0e590502b7fc99dad5a681e51e60ae3dbe66f8e8d",
        "decompose k=3":
            "5a8943ddce57b9d508382036c517041422c5851b76aa5c5b1737787989603a3d",
        "validate k=3":
            "6a688237829625fc94741a4df7e206036eb6f17dc44d4b67ed17154099b41f6b",
        "validate one-color k=3":
            "6a688237829625fc94741a4df7e206036eb6f17dc44d4b67ed17154099b41f6b",
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
        "validate k=1":
            "8e909297af4a170daf3870d546a97cc2c8b9f591ae0ea1e1b9d29052f9b2c8da",
        "validate one-color k=1":
            "6f6c30539477c29e18af4adf34b7aeeca92d538a6ea804b46eadefbc2269e068",
        "decompose k=2":
            "fd042f177a0d3cb083187e6234e388f047b57c33bf3796704fddfc59cc7a69f5",
        "validate k=2":
            "653d53bb5a735252e970921ebdd736616a746e65c23dad77ef5b5c60c08642b8",
        "validate one-color k=2":
            "d18f29faf0061086a6a338e144b028c96e743e06f35251c845fc74fda2fa9af9",
        "decompose k=3":
            "41d1108a2575aee2d40736127679315b5f3cfae355efd502b8bd261f45051327",
        "validate k=3":
            "8aa6a7bdebc6b00c7142201fd6e2b8f928797334a53ad7740ee54fd52c83bee4",
        "validate one-color k=3":
            "8aa6a7bdebc6b00c7142201fd6e2b8f928797334a53ad7740ee54fd52c83bee4",
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
        "validate k=1":
            "8e909297af4a170daf3870d546a97cc2c8b9f591ae0ea1e1b9d29052f9b2c8da",
        "validate one-color k=1":
            "4eb3954d880c9c40d6764fa3c3351354e45526f3bcab51c8d4cb806219157138",
        "decompose k=2":
            "6f210a61fd1afa09f53e57264d96c7c83de0b5dac07e76f9b1fe5609e969266e",
        "validate k=2":
            "88567d81f5011b3cd6f32742f50d0caf30feb0fed6aa1bc2e48abc74c1ce2666",
        "validate one-color k=2":
            "1dbea95b752eebc9148288020a89acc74543c3090ed62aaf15dd5d8dfab9c5ae",
        "decompose k=3":
            "e2cfbcd9355ac93e43d2a3df30aae11a33ba0de474d43e277de021d14e2cb0af",
        "validate k=3":
            "6e91278a1bca74483f2e3a8be2a6206037195ec4f08c144b5aa9bc3c2834e736",
        "validate one-color k=3":
            "e08f42a4af3f5f755aecfed8293e7fb3d77a7d4c9d74d1de6c3eb3ea00dc098e",
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
        dec = r.decomposition
        out[f"decompose k={k}"] = _sha({
            "decomposition": decomposition_to_json(g, dec),
            "invariants_log": r.invariants_log,
        })
        one_color = Decomposition(
            k, [dataclasses.replace(c, color=0) for c in dec.clusters]
        )
        for key, d in (("validate", dec), ("validate one-color", one_color)):
            rep = validate_decomposition(g, d)
            out[f"{key} k={k}"] = _sha({
                "valid": rep.valid, "failures": rep.failures, "stats": rep.stats,
            })
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_outputs_match_pinned_digests(name):
    assert outputs(name) == EXPECTED[name]


# (model, params, seed, relabel ids to just below 2^128)
RANDOM_INPUTS = {
    "gnp n=40": ("gnp", {"n": 40, "p": 0.1}, 1, False),
    "gnp n=90": ("gnp", {"n": 90, "p": 0.05, "largest_component": 1}, 4, False),
    "gnp n=60 ids near 2^128": (
        "gnp", {"n": 60, "p": 0.08, "largest_component": 1}, 6, True
    ),
    "gnp n=300": ("gnp", {"n": 300, "p": 0.03, "largest_component": 1}, 2, False),
}

RANDOM_EXPECTED = {
    "gnp n=40": {
        "gnp":
            "d62297be5bc7d0b76fec4241ed8439d859924f11a464bf2e7e1e77927c78d89d",
        "gnp all nodes":
            "d62297be5bc7d0b76fec4241ed8439d859924f11a464bf2e7e1e77927c78d89d",
        "run_ghaffari lane 0":
            "d3fc48a24732a71a8b3ca41b1c2dccca3714cfabf8b19e780410713216f105a3",
        "run_ghaffari lane 5":
            "d1f04e4ba50709f673c5786552bfcdbf0b408ec73e72dc8b00c2fa1997db0c66",
        "ghaffari_engine":
            "7c4ce7c032964039a7a9cd37e4b29d41a2e446412035b9eeb530ece1288ae41c",
        "mis_full fast c1=1":
            "a6307bb39d32e305840ead49b32bff8e00547ba5481d8b8838c79b3294fed0a6",
        "mis_full fast c1=2":
            "d45dcb49d0a17fe2aaf8c244e9012af6224831311a5efa4bb39de6313b1ce93c",
        "mis_full slow c1=1":
            "a6307bb39d32e305840ead49b32bff8e00547ba5481d8b8838c79b3294fed0a6",
        "mis_full slow c1=2":
            "d45dcb49d0a17fe2aaf8c244e9012af6224831311a5efa4bb39de6313b1ce93c",
        "carve_decompose":
            "7f16604f61bde1eeed4f114ec1d28ae2683623864faf77df7c73883cda75dfd7",
        "ball_grow_refine":
            "2d7e7561ccb03d6fc0df4aa9cd59ba9fe4f6fbfb837594cdbc8fa079f8f4c892",
    },
    "gnp n=90": {
        "gnp":
            "96bdb0ce787396fbbd559f931e5aec359f4dc34390a480a0c66a32ad394e98a9",
        "gnp all nodes":
            "85b30e76cd33aa13a8e620f7d71d69ffbe14b67b22dbc9b8ab655d7ee7440d3b",
        "run_ghaffari lane 0":
            "3d47ced59ddbfa40799efdfea416ca052f079f0bb1ed313ee876197539e852a6",
        "run_ghaffari lane 5":
            "31ce1f76497663920635d1b6f89206018192a91c141025dd6acf7d68c26c23ee",
        "ghaffari_engine":
            "cb1d583ac4fffa0bb0fec2426eeacb066de832121cfa98c3db212c1be60cd890",
        "mis_full fast c1=1":
            "b674d76135f653d525aa705962228de820d7c115a319a36ad9be40e70462e05c",
        "mis_full fast c1=2":
            "c560e491a449f949375e7c05233b7b2d603a8e208a777fcb26bedfd41afa5ff9",
        "mis_full slow c1=1":
            "b674d76135f653d525aa705962228de820d7c115a319a36ad9be40e70462e05c",
        "mis_full slow c1=2":
            "c560e491a449f949375e7c05233b7b2d603a8e208a777fcb26bedfd41afa5ff9",
        "carve_decompose":
            "fd770843d7b73536d429f7de4fa554254d49749900e182076cc103d3bcc52063",
        "ball_grow_refine":
            "55daa9d9aca0357f5e1142a557cc84d7ef2a0110d1058c6787a237e10732df4d",
    },
    "gnp n=60 ids near 2^128": {
        "gnp":
            "1e85238f18a9fcf28bf1e08c3d2bce49845e8dafc5174acb66ac055e7a277b9d",
        "gnp all nodes":
            "211c374f5fa9e8cfb3e261abd48b7da7f21248dc3b300bedc77c416657591876",
        "run_ghaffari lane 0":
            "ab059300a8b2073a44140efe8a03584d633fb8ce41a90239a82bd08885023f1f",
        "run_ghaffari lane 5":
            "b86d632b3095b63b8c4f1e7242240d9f244e9353c414e5aaab59305676bb0662",
        "ghaffari_engine":
            "44fca3e5730f5846862db570a45d96efdda598eba2ed7ee3ddef561f1b72bb17",
        "mis_full fast c1=1":
            "fef6a7205bf24dea86138c5e75ad0c1e82b0380f40b15de50488467c4ace71df",
        "mis_full fast c1=2":
            "307283bb56e138335b7547e36d1f84a983a2c8864f1169d4be25c6c70896064b",
        "mis_full slow c1=1":
            "fef6a7205bf24dea86138c5e75ad0c1e82b0380f40b15de50488467c4ace71df",
        "mis_full slow c1=2":
            "307283bb56e138335b7547e36d1f84a983a2c8864f1169d4be25c6c70896064b",
        "carve_decompose":
            "a190fa8c6177d43e57c1564b7af2c9a0f85abf90883e809907e04e83052dfae9",
        "ball_grow_refine":
            "9807ceb17a5002e2ceb012d0ce12526005fc1b72de009c629f21554789c64f7b",
    },
    "gnp n=300": {
        "gnp":
            "45f96de8f9babefa23dacef792ac67b7505cff1afc62f0e858255325bc65668f",
        "gnp all nodes":
            "45f96de8f9babefa23dacef792ac67b7505cff1afc62f0e858255325bc65668f",
        "run_ghaffari lane 0":
            "84813623e53236cd9d8e53d099a7e311326e1e60bc222855e4e2143a6e7552eb",
        "run_ghaffari lane 5":
            "a74a697454301ff0f0c63d089498e1f45eb3d50c57af852432896a6c2f687aba",
        "ghaffari_engine":
            "fabb8db56d2370ca363fdff5ad69c25bd47b3e55efd526a762565bde9e3718e0",
        "mis_full fast c1=1":
            "c5b3506bd14e4f5f01f249ac49e3c2e7b4817403723dad40fa2cfc6aff819fc8",
        "mis_full fast c1=2":
            "e67a321b28c898c4f3f10e19b43288e1c8a998c07fc135e404f17b4b86e9e29a",
        "mis_full slow c1=1":
            "767c0036712640b2bfbb48bfcc4c9e13f1f3798ea29cebd889b51eaf948b508a",
        "mis_full slow c1=2":
            "e67a321b28c898c4f3f10e19b43288e1c8a998c07fc135e404f17b4b86e9e29a",
        "carve_decompose":
            "559510e709ce973dd55de1528a2d0bc753f17c42c99d7bc97b05e721d10bb238",
        "ball_grow_refine":
            "1eee6829c6bcede5978573b103ecae28792a8a245ad728bbdb46ea6162faccb4",
    },
}


def _nodes(g, idx):
    return sorted(g.ids[v] for v in idx)


def random_outputs(name: str) -> dict[str, str]:
    model, params, seed, big = RANDOM_INPUTS[name]
    g = generate_graph(model, params, seed)
    whole = generate_graph(model, {**params, "largest_component": 0}, seed)
    out = {
        "gnp": _sha([g.ids, g.neighbors]),
        "gnp all nodes": _sha([whole.ids, whole.neighbors]),
    }
    if big:
        g = g.relabeled({v: 2**128 - 1 - 7919 * v for v in g.ids}, id_bits=128)
    for lane in (0, 5):
        mis, removed, undecided, p = run_ghaffari(g, 13, seed, lane=lane)
        out[f"run_ghaffari lane {lane}"] = _sha([
            _nodes(g, mis), _nodes(g, removed), _nodes(g, undecided), p.tolist(),
        ])
    statuses, stats = ghaffari_engine(g, 6, 3, seed)
    out["ghaffari_engine"] = _sha([statuses, stats.to_json()])
    for variant in ("fast", "slow"):
        for c1 in (1, 2):
            rep = mis_full(g, seed, variant, c1=c1)
            out[f"mis_full {variant} c1={c1}"] = _sha([
                rep.to_json(g),
                rep.shatter.to_json() if rep.shatter else None,
            ])
    h = MetaGraph.from_graph(g)
    inter = decompose(g, 1).decomposition
    dec, diags, phases = carve_decompose(h, inter, seed=seed)
    out["carve_decompose"] = _sha([
        decomposition_to_json(g, dec), [d.to_json() for d in diags], phases,
    ])
    dec, logs = ball_grow_refine(h, inter)
    out["ball_grow_refine"] = _sha([
        decomposition_to_json(g, dec), [log.to_json() for log in logs],
    ])
    return out


@pytest.mark.parametrize("name", sorted(RANDOM_INPUTS))
def test_randomized_outputs_match_pinned_digests(name):
    assert random_outputs(name) == RANDOM_EXPECTED[name]


# (model, params, seed, relabel ids to just below 2^128)
ENGINE_INPUTS = {
    "grid 6x7": ("grid", {"rows": 6, "cols": 7}, 0, False),
    "tree n=80": ("tree", {"n": 80}, 3, False),
    "gnp n=120": ("gnp", {"n": 120, "p": 0.03, "largest_component": 1}, 2, False),
    "gnp n=150 ids near 2^128": (
        "gnp", {"n": 150, "p": 0.02, "largest_component": 1}, 5, True
    ),
}

ENGINE_EXPECTED = {
    "grid 6x7": {
        "flood singletons":
            "c304bb41155d34b4749d8335d82b9849eeb2e1c70ba7eea69f1a5895ad0058d2",
        "flood clusters":
            "25ec8659ab41f34f0c4bd81fdf099e81d7642bda329d6a69c1412e815c327d1a",
        "flood payloads":
            "ef9176700bae952f748bba4e57214e3cf85a64f625f9e219f707c22c3abd0558",
        "flood non-strict budget":
            "507d61e9c81d2e18308b60297aefe047c0ea1a23758d378e7117f2326a42c18b",
        "min_gossip":
            "ea39368723ec24b9abb1cd93953fa8591e4257f023db36f8b7aabb893cb8c671",
        "cluster_convergecast union":
            "ac569d6b556abe644351c28140fae1f45d40ddc873197187c96c18dbcf621cce",
        "cluster_convergecast count":
            "43ec55c65d2f424f2a738d3d470dedf710b436dfd0eb0b4731f6e74dda2c8815",
        "decompose sim k=1":
            "c059694923f53651eedf1f82bd268cbbe446e896a26691270e3c393ff7c3d89b",
        "decompose sim k=2":
            "696e0b9fd41607b6c693272a481d219d0ea614132460554789f237c47d4cccf8",
        "ghaffari_engine 70 lanes":
            "babb22241fa7a04b4f655aa41e152b9ea8038b98b0c0734b1582f058abe1bbc9",
    },
    "tree n=80": {
        "flood singletons":
            "773821b11383a5412aeb4b180e09bc32e2f8e8b2e09bb91e45d8c1f789ddff15",
        "flood clusters":
            "77af88e627bd85dd9b9da93c4c51a0ec844b418f8e42b89c486b99807f713c40",
        "flood payloads":
            "32fc55a998136904196e53442a67c883e9066f6845023e088166ea9cb1922af5",
        "flood non-strict budget":
            "cecaaa1cf31f2a41e839a20604ba4fb0a68232983e787f5bcbdb02dd6c831094",
        "min_gossip":
            "fc243224b88da8c34fdb780a5b6a74fd2f4b88254fcd4242feedb8a18c3a95c7",
        "cluster_convergecast union":
            "5746dadc376cdab5263bf36d19faa11fda386a588df4598f412ecba7a7b2e619",
        "cluster_convergecast count":
            "1485b2c077fccd71f1ebd780a74c123dbb7efe4217cefe1c2407aabfc9f7fadd",
        "decompose sim k=1":
            "508aedfb19da3a2293750da10a52f194eb139f61f1a5d9279aee8445150fbd4b",
        "decompose sim k=2":
            "129e4c18b422eca56f85aa86154a440f1a80c4949d726664cff61a553c5a2458",
        "ghaffari_engine 70 lanes":
            "1bb96f458db515973a993f3cc170d51674c22cf8a9ec1b1f882cb3bac504c991",
    },
    "gnp n=120": {
        "flood singletons":
            "b62a62ae52ba2bd68e980f016f0942b5248181837623d651cecf4b3ec4a73c34",
        "flood clusters":
            "0b99284c42ea10a24c26073a796de3855c1a14e7e0f423f4df83ad3f2a56ed10",
        "flood payloads":
            "8f21c8c4a4a9300818dd96a21dd78df5ba977f077222617ad89ed856798f3a7a",
        "flood non-strict budget":
            "eae74b11f8644c95155fb4bc6d04676aac4332eda484a1b0404c6d079c688878",
        "min_gossip":
            "dfbeec2bd02235df1435e9c3827a1a65d850f6386b3757a905b2b08b468bb4e2",
        "cluster_convergecast union":
            "ac1dcd8eb12bd6548e6e1fea043f8b5ae8bf6deead4a1361e83f092d1aa40504",
        "cluster_convergecast count":
            "452e27b3898e88f927d90cc821c209025fae040539f74da7b34471ef0aa03b7e",
        "decompose sim k=1":
            "f1d3666ad46bdb7c4a14767944427649d68f8bb1980dff080d8ad950c5c227f9",
        "decompose sim k=2":
            "b7dfc29cb99c1f56811466657605d5af910559ac04990341d8158d266b7d3a6e",
        "ghaffari_engine 70 lanes":
            "3ea2f0402b910dd2e541d51f0bd7ea48700edabed372eafe8d2c647f3ad5bcc9",
    },
    "gnp n=150 ids near 2^128": {
        "flood singletons":
            "cc6baf437049f2b749875f4da0d610f99ebc3c6402f36d95951757bdefccf6fe",
        "flood clusters":
            "8d14edee5119500f4a5017f0f1446263e64ad2131f96e46eb340f3dee608586f",
        "flood payloads":
            "b2356dca41784723426e8dbe88cecd5e4ac02a21c0b5d81bb99b7b141e15a334",
        "flood non-strict budget":
            "6e22b23b5392e743182fe5e907df7d9fc84cd84944bb4fdc6375a4b3efbfb76e",
        "min_gossip":
            "3706aaceb62b3f3d7be04b35f68836413aa2a826fbab36b008273cc1c029b5cf",
        "cluster_convergecast union":
            "11e2c29f4d50bfe9d108cc1f840651b2b7032268d6acd715481da192facf90ab",
        "cluster_convergecast count":
            "17e1f29e6efedc411c39ecec5f6df66af8a1767665cc22692b999dc5744adf7f",
        "decompose sim k=1":
            "16b651b8e102627dff8c13b4cb0d6af2938d39333817d8f4d32558295dcbae5a",
        "decompose sim k=2":
            "73545b3973b74d878becf9a9ffa2bf67d9f64a8ff8be6889852042a35e9371ef",
        "ghaffari_engine 70 lanes":
            "83123c622ddc4daa0760774ac876cbdc2663487648925b0e4f352fb435ce01ea",
    },
}


def _held(holdings):
    return [sorted(h, key=repr) for h in holdings]


def engine_outputs(name: str) -> dict[str, str]:
    model, params, seed, big = ENGINE_INPUTS[name]
    g = generate_graph(model, params, seed)
    if big:
        g = g.relabeled({v: 2**128 - 1 - 7919 * v for v in g.ids}, id_bits=128)
    clusters = decompose(g, 2).decomposition.clusters
    cfg = SimConfig()
    loose = SimConfig(msg_bits=g.id_bits + 8, strict=False)
    singles = {v: (g.ids[v], None) for v in range(g.n)}
    by_cluster = {m: (c.id, None) for c in clusters for m in c.members}
    payloads = {v: (g.ids[v], f"p{v}") for v in range(0, g.n, 3)}
    out = {}
    for key, sources, hops, fanin, conf in (
        ("flood singletons", singles, 2, 5, cfg),
        ("flood clusters", by_cluster, 3, 4, cfg),
        ("flood payloads", payloads, 4, 3, cfg),
        ("flood non-strict budget", singles, 2, 3, loose),
    ):
        held, stats = bounded_flood(g, sources, hops, fanin, conf)
        out[key] = _sha([_held(held), stats.to_json()])
    values = {m: c.id for c in clusters for m in c.members if c.color % 2}
    best, stats = min_gossip(g, values, 3, cfg)
    out["min_gossip"] = _sha([best, stats.to_json()])
    for combine, values, cap in (
        ("union", {m: {c.id: [g.ids[m] % 13, g.ids[m]]}
                   for c in clusters for m in c.members}, 4),
        ("count", {m: {c.id: [1]} for c in clusters for m in c.members}, 2**30),
    ):
        agg, stats = cluster_convergecast(g, clusters, values, cfg, combine, cap)
        out[f"cluster_convergecast {combine}"] = _sha([
            sorted(agg.items()), stats.to_json(),
        ])
    for k in (1, 2):
        r = decompose(g, k, mode="sim")
        out[f"decompose sim k={k}"] = _sha({
            "decomposition": decomposition_to_json(g, r.decomposition),
            "invariants_log": r.invariants_log,
            "stats": r.stats.to_json(),
        })
    statuses, stats = ghaffari_engine(
        g, 9, 70, seed, SimConfig(msg_bits=max(70, g.id_bits + 8), strict=True)
    )
    out["ghaffari_engine 70 lanes"] = _sha([statuses, stats.to_json()])
    return out


@pytest.mark.parametrize("name", sorted(ENGINE_INPUTS))
def test_engine_outputs_match_pinned_digests(name):
    assert engine_outputs(name) == ENGINE_EXPECTED[name]


# decompose(mode="sim") on a graph whose first phase marks 16 clusters and
# puts 278 in C*, so the marked-neighbor gossip and the case-II redirect run
MARKED_SIM_INPUT = (("gnp", {"n": 300, "p": 0.0133}, 12), 12)
MARKED_SIM_EXPECTED = (
    "55950dac93fed2165afb7b1645e54db341e209944758c4cab18a31b7bbaa2f12"
)


def marked_sim_output() -> str:
    spec, k = MARKED_SIM_INPUT
    g = generate_graph(*spec)
    r = decompose(g, k, mode="sim")
    assert (r.phases[0].marked, r.phases[0].cstar) == (16, 278)
    return _sha({
        "decomposition": decomposition_to_json(g, r.decomposition),
        "invariants_log": r.invariants_log,
        "stats": r.stats.to_json(),
    })


def test_decompose_sim_with_marks_matches_pinned_digest():
    assert marked_sim_output() == MARKED_SIM_EXPECTED


# Validator reports on clusters above 64 members (one 64-bit word of
# ``weak_diameter`` lanes) and across a lane block: the fast decompositions
# of the benchmark's ``tree`` n=2000 k=3 and ``gnp`` n=2000 k=2 graphs and
# their one-color recolorings; the whole graph as one cluster on a BFS tree
# (1,957 and 2,000 members); a decomposition of ``gnp`` with its small
# components kept whose largest cluster absorbs a cluster of another
# component; the k=1 cover of the ``gnp`` decomposition, whole, with its
# largest cluster dropped and with that cluster's tree cut; one fault of
# each kind in the trees of the ``gnp`` decomposition (``_tree_faults``);
# and ``validate_mis`` on a ``mis_full`` output and on four invalid sets.
VALIDATOR_INPUTS = {
    "tree n=2000 k=3": (("tree", {"n": 2000}, 3), 3),
    "gnp n=2000 k=2": (
        ("gnp", {"n": 2000, "p": 0.002, "largest_component": 1}, 3), 2
    ),
}
VALIDATOR_EXPECTED = {
    "tree n=2000 k=3": {
        "validate":
            "e5b56e66aebb99e2ba5c7c770fadf1ba3f5d8f959bb886e74fd4a41a70daabb2",
        "validate one-color":
            "8b09a78377d9fb9a5f57598df4b6651473e7e9fe6cdbb4bfb505d40cda1145a6",
        "validate one cluster":
            "68b7276a170a1047b2d2759d940e85a5b7fcb33de4b07960ff13ab58181ee2b7",
    },
    "gnp n=2000 k=2": {
        "validate":
            "8d14d55be1bdfd7e877b6a0355c7d9c8e9e45342ab7b033b5defc6fb4a1d6cd4",
        "validate one-color":
            "5b841d237d6e35617aca7378d75dc796a64b694395b51fb33815fa416525ec09",
        "validate one cluster":
            "ff3d18b5e002796af2a6adfe08cacd07d0a83ef07f0bed44da18845abc342ef4",
        "validate disconnected cluster":
            "07982da6ec338d56232a3a26643246fbb7f4fa8885aef22e1164e55b3b30dc06",
        "validate_cover":
            "88df819712f898ed8e1db50dc3e01bf2a0f9c21470fd541f32eca78de0c3235b",
        "validate_cover dropped cluster":
            "e268c72377d86fc25d9363a10fc1c683f3d58d2deb24a3fb93c01dd3de186fd0",
        "validate_cover tree not connected":
            "14a863449d35a66e9cce31eb0ef56e96ec0a96fce70b43da9491dbc9c4be18e8",
        "validate non-G tree edge":
            "d846dade47a36d7253b52feb3a323a71ac43dd3ec810218393d864fa7c8aef22",
        "validate reversed duplicate tree edge":
            "65bf797efc17c241a987b2dd2015a86db7b5f71c8464647c619e999160e41185",
        "validate tree with a cycle":
            "13bbf8d598447e1c50500a71aa6cd6eb5a6b791500a60f679b22323c267e061e",
        "validate tree not connected":
            "f908368b55baf3588470d63a688d628372f7e34b321bc2ee42ae33135bedfa1e",
        "validate member off its tree":
            "8eee21b42fc3ca35240379ded37c94fd81cfb2f453b8824e0bf6895b30e1050b",
        "validate strong-mode leak":
            "f779ee4252c81fa27d69f94092e06b022d2673c27dee1ce4c965282259f8792c",
        "validate center outside its members":
            "9d05189092938a81c02aac6838f86fe6da886dea4e689635712811321cd7c1a0",
        "validate two trees share an edge":
            "1a6de7281f0f30d35a07934c023a4be04d5d0ee6f62153c92166821170c93bfb",
        "validate_mis mis_full":
            "d94613877de59a3a0b3717d90975186f4eec3b2ea86e58be2ae86012529b845d",
        "validate_mis adjacent pair":
            "ef7bdcbb21d21574dc86f2398c21df9833c6bd6c238d078ee248b018fa1dd2fb",
        "validate_mis undominated isolated node":
            "2d88c7d5a0e5a845fd8b3e4e7393fa997bd862386af9ada95e6e057477a4de9d",
        "validate_mis empty set":
            "10d733d25ebac4f089f689b55f1de0461b3c30e3c9299640b3465a62121a44fc",
        "validate_mis out-of-range index":
            "3f0ccfd0e1cb5d11071def40b9a6097b90d60774a3575fce9cca2158e588d6b3",
    },
}


def _report(rep):
    return _sha({"valid": rep.valid, "failures": rep.failures, "stats": rep.stats})


def _bfs_tree_cluster(g):
    parent: dict = {}
    _bfs_idx(g, [0], parent=parent)
    edges = frozenset((p, v) for v, p in parent.items() if v != p)
    return Cluster(id=0, center=0, members=frozenset(parent), tree_edges=edges, color=0)


def validator_outputs(name: str) -> dict[str, str]:
    spec, k = VALIDATOR_INPUTS[name]
    g = generate_graph(*spec)
    dec = decompose(g, k).decomposition
    one_color = Decomposition(
        k, [dataclasses.replace(c, color=0) for c in dec.clusters]
    )
    out = {
        "validate": _report(validate_decomposition(g, dec)),
        "validate one-color": _report(validate_decomposition(g, one_color)),
        "validate one cluster": _report(
            validate_decomposition(g, Decomposition(k, [_bfs_tree_cluster(g)]))
        ),
    }
    if spec[0] != "gnp":
        return out
    whole = generate_graph(spec[0], {**spec[1], "largest_component": 0}, spec[2])
    clusters = decompose(whole, k).decomposition.clusters
    labels = {v: i for i, comp in enumerate(connected_components(whole)) for v in comp}
    big = max(clusters, key=lambda c: len(c.members))
    other = next(c for c in clusters
                 if labels[c.center] != labels[big.center])
    merged = dataclasses.replace(big, members=big.members | other.members)
    rest = [c for c in clusters if c is not big and c is not other]
    out["validate disconnected cluster"] = _report(
        validate_decomposition(whole, Decomposition(k, [merged] + rest))
    )
    cover = cover_from_decomposition(g, 1, dec)
    out["validate_cover"] = _report(validate_cover(g, cover))
    largest = max(cover.clusters, key=lambda c: len(c.members))
    holed = NeighborhoodCover(1, [c for c in cover.clusters if c is not largest])
    out["validate_cover dropped cluster"] = _report(validate_cover(g, holed))
    out["validate_cover tree not connected"] = _report(
        validate_cover(g, _with_fault(cover, largest, _cut_inner_edge))
    )
    for fault, (faulty, strong) in _tree_faults(g, dec).items():
        out[f"validate {fault}"] = _report(
            validate_decomposition(g, faulty, strong=strong)
        )
    mis = mis_full(g, seed=3).mis
    low = min(mis)
    isolated = next(v for v in range(whole.n) if not whole.neighbors[v])
    greedy: set = set()
    for v in range(whole.n):
        if not any(u in greedy for u in whole.neighbors[v]):
            greedy.add(v)
    out["validate_mis mis_full"] = _mis_verdict(g, mis)
    out["validate_mis adjacent pair"] = _mis_verdict(g, mis | {g.neighbors[low][0]})
    out["validate_mis undominated isolated node"] = _mis_verdict(
        whole, greedy - {isolated}
    )
    out["validate_mis empty set"] = _mis_verdict(g, set())
    out["validate_mis out-of-range index"] = _mis_verdict(g, mis | {g.n})
    return out


def _mis_verdict(g, s) -> str:
    try:
        return _sha(list(validate_mis(g, s)))
    except IndexError as exc:
        return _sha({"raises": type(exc).__name__})


def _with_fault(dec, cluster, fault):
    """``dec`` with ``cluster`` replaced by ``fault(cluster)``."""
    return dataclasses.replace(
        dec, clusters=[fault(c) if c is cluster else c for c in dec.clusters]
    )


def _tree_degrees(c) -> dict:
    deg: dict = {}
    for e in c.tree_edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    return deg


def _cut_inner_edge(c):
    """``c`` without its first tree edge whose ends both keep another edge:
    the tree splits and keeps its nodes."""
    deg = _tree_degrees(c)
    e = min(e for e in c.tree_edges if min(deg[v] for v in e) >= 2)
    return dataclasses.replace(c, tree_edges=c.tree_edges - {e})


def _tree_faults(g, dec) -> dict:
    """One invalid variant of ``dec`` per kind of tree fault, each with the
    ``strong`` flag to validate it with.  Faults go into the largest
    cluster; the shared edge goes from the first cluster with tree edges to
    the second, recolored to the first one's color."""
    big = max(dec.clusters, key=lambda c: (len(c.members), -c.id))
    nodes = sorted(big.tree_nodes())
    tree = {tuple(sorted(e)) for e in big.tree_edges}
    far = next((a, b) for a in nodes for b in nodes
               if a < b and b not in g.neighbors[a])
    chord = next((a, b) for a in nodes for b in g.neighbors[a]
                 if a < b and b in big.tree_nodes() and (a, b) not in tree)
    first = min(big.tree_edges)
    deg = _tree_degrees(big)
    leaf = min(e for e in big.tree_edges
               if any(deg[v] == 1 and v != big.center for v in e))
    outside = min(v for v in range(g.n) if v not in big.members)
    a, b = [c for c in dec.clusters if c.tree_edges][:2]
    shared = dataclasses.replace(
        b, color=a.color, tree_edges=b.tree_edges | {min(a.tree_edges)}
    )

    def edit(**fields):
        return _with_fault(dec, big, lambda c: dataclasses.replace(c, **fields))

    return {
        "non-G tree edge": (edit(tree_edges=big.tree_edges | {far}), False),
        "reversed duplicate tree edge":
            (edit(tree_edges=big.tree_edges | {first[::-1]}), False),
        "tree with a cycle": (edit(tree_edges=big.tree_edges | {chord}), False),
        "tree not connected": (_with_fault(dec, big, _cut_inner_edge), False),
        "member off its tree": (edit(tree_edges=big.tree_edges - {leaf}), False),
        "strong-mode leak": (dec, True),
        "center outside its members": (edit(center=outside), False),
        "two trees share an edge": (_with_fault(dec, b, lambda c: shared), False),
    }


@pytest.mark.parametrize("name", sorted(VALIDATOR_INPUTS))
def test_validator_reports_match_pinned_digests(name):
    assert validator_outputs(name) == VALIDATOR_EXPECTED[name]


def _shuffled_edges(g, seed):
    """``g``'s edges by id in a seeded random order, each one flipped with
    probability 1/2, with its weight as a string if ``g`` is weighted."""
    rng = np.random.default_rng(seed)
    edges = []
    for a, b in g.edge_indices():
        e = [g.ids[a], g.ids[b]]
        if g.weights is not None:
            e.append(str(g.weights[(a, b)]))
        edges.append(e)
    out = [edges[i] for i in rng.permutation(len(edges)).tolist()]
    for e, flip in zip(out, rng.random(len(out)) < 0.5):
        if flip:
            e[0], e[1] = e[1], e[0]
    return out


def _write_gnp_json(path: Path) -> str:
    g = generate_graph("gnp", {"n": 2000, "p": 0.005}, 3)
    path.write_text(json.dumps(
        {"nodes": list(g.ids)[::-1], "edges": _shuffled_edges(g, 3)}
    ))
    return "json"


def _write_weighted_json(path: Path) -> str:
    spec = {"n": 300, "p": 0.0133, "largest_component": 1}
    g = random_weights(generate_graph("gnp", spec, 4), 4)
    path.write_text(json.dumps({"nodes": list(g.ids), "edges": _shuffled_edges(g, 4)}))
    return "json"


def _write_huge_ids_json(path: Path) -> str:
    g = generate_graph("gnp", {"n": 300, "p": 0.02}, 5)
    g = g.relabeled({v: 2**128 - 1 - 7919 * v for v in g.ids}, id_bits=130)
    path.write_text(json.dumps({
        "nodes": list(g.ids), "edges": _shuffled_edges(g, 5), "id_bits": 130,
    }))
    return "json"


def _write_edge_list(path: Path) -> str:
    g = random_weights(generate_graph("gnp", {"n": 500, "p": 0.01}, 6), 6)
    lines = ["# gnp n=500, weighted", f"{g.n} {g.m}"]
    lines += [f"{u} {v} {w}  # edge" for u, v, w in _shuffled_edges(g, 6)]
    path.write_text("\n".join(lines) + "\n")
    return "edge-list"


LOAD_INPUTS = {
    "json gnp n=2000": _write_gnp_json,
    "json weighted gnp n=300": _write_weighted_json,
    "json ids near 2^128": _write_huge_ids_json,
    "edge list weighted gnp n=500": _write_edge_list,
}

LOAD_EXPECTED = {
    "json gnp n=2000":
        "ab209599a4777c72889a2eda9f2eb3c0d1cc2085112a940609a98d45f03fd6f5",
    "json weighted gnp n=300":
        "3422dc178b0e9a004523d71bb5faf6c9b27d392016e66dd4c65d67766c8623de",
    "json ids near 2^128":
        "c032ab732676912206abb0a21282328605070101bda29a01bc3f930d81cf8995",
    "edge list weighted gnp n=500":
        "2614a840b81db4006cb8be4eb8b6e4417f42e3e37cb3e53c47b173ee831d526b",
}


def load_output(name: str, workdir: Path) -> str:
    path = workdir / "graph"
    g = load_graph(str(path), fmt=LOAD_INPUTS[name](path))
    weights = None
    if g.weights is not None:
        weights = sorted([a, b, str(w)] for (a, b), w in g.weights.items())
    return _sha([g.ids, g.neighbors, weights, g.id_bits])


@pytest.mark.parametrize("name", sorted(LOAD_INPUTS))
def test_loaded_graphs_match_pinned_digests(name, tmp_path):
    assert load_output(name, tmp_path) == LOAD_EXPECTED[name]


def _print_table(title, inputs, compute):
    print(f"{title} = {{")
    for name in inputs:
        print(f"    {json.dumps(name)}: {{")
        for key, digest in compute(name).items():
            print(f"        {json.dumps(key)}:\n            {json.dumps(digest)},")
        print("    },")
    print("}")


if __name__ == "__main__":
    _print_table("EXPECTED", INPUTS, outputs)
    _print_table("RANDOM_EXPECTED", RANDOM_INPUTS, random_outputs)
    _print_table("ENGINE_EXPECTED", ENGINE_INPUTS, engine_outputs)
    print(f"MARKED_SIM_EXPECTED = {json.dumps(marked_sim_output())}")
    _print_table("VALIDATOR_EXPECTED", VALIDATOR_INPUTS, validator_outputs)
    print("LOAD_EXPECTED = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in LOAD_INPUTS:
            print(f"    {json.dumps(name)}:\n        "
                  f"{json.dumps(load_output(name, Path(tmp)))},")
    print("}")
