"""NVMe namespaces.

The paper's tenants attach to NVMe namespaces over NVMe-oF
(Section 2.3 notes that namespaces give independent *addressing* but
no physical isolation -- requests to different namespaces still
interfere inside the device, which is exactly what the simulated FTL
reproduces).  :class:`~repro.nvme.namespace.Namespace` is an LBA window
onto a device with bounds-checked translation; the NVMe-oF target uses
it for per-tenant addressing.
"""

from repro.nvme.namespace import Namespace, NamespaceError

__all__ = ["Namespace", "NamespaceError"]
