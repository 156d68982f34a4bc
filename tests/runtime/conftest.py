"""Fixtures shared by the procs backend's test modules."""

import os
from multiprocessing.connection import Connection

import pytest


@pytest.fixture()
def pipe_log(monkeypatch):
    """Every message the parent sends to or reads from a worker pipe, in
    order: ``("send", command)`` and ``("recv", reply kind)``."""
    log = []
    parent = os.getpid()
    send, recv = Connection.send, Connection.recv

    def logged_send(conn, message):
        send(conn, message)
        if os.getpid() == parent:
            log.append(("send", message))

    def logged_recv(conn):
        message = recv(conn)
        if os.getpid() == parent:
            log.append(("recv", message[0]))
        return message

    monkeypatch.setattr(Connection, "send", logged_send)
    monkeypatch.setattr(Connection, "recv", logged_recv)
    return log
