"""Hierarchical self-organizing federated learning, simulated in one process.

Clients train personalized models against a K-level tree of group models;
the tree is rebuilt periodically by average-linkage clustering of the client
models.  FedAvg and FedProx run as flat baselines in the same round loop,
over a fixed one-group tree.
"""
