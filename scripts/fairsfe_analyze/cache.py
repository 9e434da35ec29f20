"""Content-hash result cache for per-TU facts.

Key = sha256(relpath, analyzer version, file bytes). The analyzer version is
baked into the key (not checked at load time) so an upgraded analyzer simply
misses and re-extracts — stale facts can never be served. Values are the JSON
facts dicts from tu.extract_facts, one file per key, written atomically so a
crashed run never leaves a truncated entry behind.

Every run extracts facts for the whole tree, so the keys a run reads or
writes are exactly the live ones; evict_stale() then deletes every other
entry, and the cache holds one entry per TU instead of one per TU version.
"""

import hashlib
import json
import os
import tempfile

try:
    from __init__ import ANALYZER_VERSION  # flat-module layout (sys.path)
except ImportError:  # imported as a package
    from fairsfe_analyze import ANALYZER_VERSION


def key_for(relpath, text):
    h = hashlib.sha256()
    h.update(relpath.encode("utf-8"))
    h.update(b"\0")
    h.update(ANALYZER_VERSION.encode("ascii"))
    h.update(b"\0")
    h.update(text.encode("utf-8", "surrogateescape"))
    return h.hexdigest()


class FactsCache:
    def __init__(self, cache_dir):
        self.dir = cache_dir
        self.hits = 0
        self.misses = 0
        self.live = set()  # keys this run read or wrote
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.dir, key[:2], key + ".json")

    def get(self, key):
        if not self.dir:
            return None
        try:
            with open(self._path(key), encoding="utf-8") as f:
                facts = json.load(f)
            self.hits += 1
            self.live.add(key)
            return facts
        except (OSError, ValueError):
            self.misses += 1
            return None

    def put(self, key, facts):
        if not self.dir:
            return
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(facts, f, separators=(",", ":"))
            os.replace(tmp, path)
            self.live.add(key)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def evict_stale(self):
        """Delete every entry this run neither read nor wrote; returns the
        number deleted."""
        if not self.dir:
            return 0
        evicted = 0
        for dirpath, _dirnames, filenames in os.walk(self.dir):
            for name in filenames:
                key, ext = os.path.splitext(name)
                if ext != ".json" or key in self.live:
                    continue
                try:
                    os.unlink(os.path.join(dirpath, name))
                    evicted += 1
                except OSError:
                    pass
        return evicted
