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
every draw.

To print the digests of the code under test:

    PYTHONPATH=src python tests/test_output_hashes.py
"""

import dataclasses
import hashlib
import json

import pytest

from netdecomp.clustering import (
    Decomposition,
    decomposition_to_json,
    validate_decomposition,
)
from netdecomp.carving import MetaGraph, ball_grow_refine, carve_decompose
from netdecomp.covers import cover_mst, kruskal_oracle, mst_radius
from netdecomp.decompose import decompose
from netdecomp.graphs import generate_graph, random_weights
from netdecomp.mis import ghaffari_engine, mis_full, run_ghaffari

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
