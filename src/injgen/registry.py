"""Content-addressed object store backed by a directory.

Layout: <root>/objects/<hash>.json holds the canonical document bytes,
<root>/index.json maps hashes to file, label, kind, and provenance.
Storing the same document twice is a no-op that leaves index.json
untouched; labels are conveniences and never enter the hash.  store and
load admit an object only if its document parses and it satisfies its
axioms, once per hash.  Writers to one store take an exclusive lock on
<root>/index.lock and re-read the index under it, so concurrent processes
never drop each other's entries.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .algebra import check_axioms
from .serialize import (SerializeError, canonical_bytes, content_hash,
                        from_json, object_kind, to_json)


class RegistryError(Exception):
    pass


def _provenance_ok(prov):
    """Whether prov is null or a record naming a construction and a list of
    input hashes."""
    return prov is None or (
        isinstance(prov, dict) and isinstance(prov.get("construction"), str)
        and isinstance(prov.get("inputs"), list)
        and all(isinstance(h, str) for h in prov["inputs"]))


class Registry:
    def __init__(self, root):
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"
        self._index = self._read_index()
        self._live = {}

    def _read_index(self):
        """The index on disk: an object whose "objects" maps each hash to an
        entry object with a string "file", a string or null "label" and a
        well-formed or null "provenance"; RegistryError otherwise."""
        if not self._index_path.exists():
            return {"objects": {}}
        try:
            index = json.loads(self._index_path.read_text())
        except ValueError as e:
            raise RegistryError(f"corrupt index at {self._index_path}: {e}") from e
        objs = index.get("objects") if isinstance(index, dict) else None
        if not isinstance(objs, dict) or not all(
                isinstance(e, dict) and isinstance(e.get("file"), str)
                and isinstance(e.get("label"), (str, type(None)))
                and _provenance_ok(e.get("provenance")) for e in objs.values()):
            raise RegistryError(f"corrupt index at {self._index_path}: not a map of "
                                "hashes to entries with a file, a label and a provenance")
        return index

    @contextmanager
    def _locked_index(self):
        """Hold the store's lock with the index freshly read from disk."""
        with open(self.root / "index.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                self._index = self._read_index()
                yield self._index
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _write_index(self):
        tmp = self._index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self._index, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, self._index_path)

    def _admit(self, h: str, doc: dict, obj=None):
        """Cache the object of document doc (hash h), parsed unless given, if
        it satisfies its axioms; raise RegistryError otherwise."""
        if h in self._live:
            return
        name = self._index["objects"].get(h, {}).get("label") or h[:12]
        try:
            obj = from_json(doc) if obj is None else obj
        except SerializeError as e:
            raise RegistryError(f"object {name}: {e}") from e
        rep = check_axioms(obj)
        if not rep.passed:
            raise RegistryError(f"object {name} violates {len(rep.violations)} "
                                f"axiom(s), first {rep.violations[0]!r}")
        self._live[h] = obj

    def store(self, doc: dict, label: str | None = None) -> str:
        return self._write(content_hash(doc), doc, label)

    def store_object(self, obj, label=None, provenance=None) -> str:
        doc = to_json(obj, provenance)
        return self._write(content_hash(doc), doc, label, obj)

    def _write(self, h, doc, label, obj=None):
        """Admit document doc (hash h; its object obj when the caller has
        it) and write it and its index entry under the lock."""
        if not _provenance_ok(doc.get("provenance")):
            raise RegistryError(f"object {label or h[:12]}: malformed provenance")
        self._admit(h, doc, obj)
        rel = f"objects/{h}.json"
        path = self.root / rel
        with self._locked_index() as index:
            if not path.exists():
                path.write_bytes(canonical_bytes(doc))
            entry = index["objects"].get(h)
            changed = entry is None
            if entry is None:
                entry = {"file": rel, "kind": object_kind(doc),
                         "provenance": doc.get("provenance")}
                index["objects"][h] = entry
            elif entry.get("provenance") is None and doc.get("provenance") is not None:
                # a provenance-bearing re-store enriches a bare entry
                entry["provenance"] = doc["provenance"]
                path.write_bytes(canonical_bytes(doc))
                changed = True
            if label is not None and entry.get("label") != label:
                entry["label"] = label
                changed = True
            if changed:
                self._write_index()
        return h

    def entry(self, h: str) -> dict:
        try:
            return self._index["objects"][h]
        except KeyError:
            raise RegistryError(f"unknown object {h}") from None

    def entries(self) -> dict:
        return dict(self._index["objects"])

    def load_doc(self, h: str) -> dict:
        path = self.root / self.entry(h)["file"]
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError) as e:
            raise RegistryError(f"cannot read stored object {h}: {e}") from e
        got = content_hash(doc)
        if got != h:
            raise RegistryError(f"stored object {h} rehashes to {got}")
        return doc

    def load(self, h: str):
        if h not in self._live:
            self._admit(h, self.load_doc(h))
        return self._live[h]

    def label_of(self, h: str) -> str:
        e = self.entry(h)
        return e.get("label") or h[:12]

    def resolve(self, ref: str) -> str:
        objs = self._index["objects"]
        if ref in objs:
            return ref
        by_label = [h for h, e in objs.items() if e.get("label") == ref]
        if len(by_label) == 1:
            return by_label[0]
        if len(by_label) > 1:
            raise RegistryError(f"label {ref!r} is ambiguous")
        if len(ref) >= 6:
            pref = [h for h in objs if h.startswith(ref)]
            if len(pref) == 1:
                return pref[0]
            if len(pref) > 1:
                raise RegistryError(f"hash prefix {ref!r} is ambiguous")
        raise RegistryError(f"no object matches {ref!r}")

    def derived_from(self, h: str, construction: str | None = None):
        """Entries whose provenance lists h among the inputs."""
        out = []
        for other, e in self._index["objects"].items():
            prov = e.get("provenance")
            if not prov:
                continue
            if construction is not None and prov.get("construction") != construction:
                continue
            if h in prov.get("inputs", []):
                out.append((other, e))
        out.sort(key=lambda t: t[0])
        return out

    def __contains__(self, h: str) -> bool:
        return h in self._index["objects"]

    def __len__(self) -> int:
        return len(self._index["objects"])
