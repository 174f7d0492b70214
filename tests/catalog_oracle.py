"""The per-row `json.dumps` tau-catalog writer, kept as the differential
oracle for `perfcode.io.save_tau_catalog`, which renders rows a block at
a time as one byte matrix: both must write the same bytes."""

from __future__ import annotations

import json

from perfcode.regular_groups import TauCatalog


def save_tau_catalog(path, catalog: TauCatalog) -> None:
    """Complete: a JSON list of {"tau": [...], "r":, "group_id":, "aut_id":}.  Partial:
    {"r":, "complete": false, "taus": <list>}, which no reader of bare lists takes as complete."""
    with open(path, "w") as fh:
        if not catalog.complete:
            fh.write(f'{{"r":{catalog.r},"complete":false,"taus":')
        fh.write("[")
        for i in range(len(catalog)):
            if i:
                fh.write(",")
            gid, aid = catalog.provenance(i)
            images = [int(x) for x in catalog.images[i]]
            fh.write(
                json.dumps(
                    {"tau": images, "r": catalog.r, "group_id": gid, "aut_id": aid},
                    separators=(",", ":"),
                )
            )
        fh.write("]\n" if catalog.complete else "]}\n")
